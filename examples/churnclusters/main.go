// Churnclusters segments customers with distributed K-means (the paper's
// recurring clustering workload), deploys the centers into the database,
// assigns every customer to a segment with KmeansPredict, and then uses
// plain SQL to profile the segments — the "leverage the strengths of both
// systems" workflow of §2: R-style modelling plus industrial SQL.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"verticadr"
)

func main() {
	s, err := verticadr.Start(verticadr.Config{DBNodes: 3, DRWorkers: 3, InstancesPerWorker: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Customers come in three behavioural archetypes.
	type archetype struct{ spend, tenure, tickets float64 }
	arch := []archetype{
		{spend: 20, tenure: 1, tickets: 8}, // at-risk: low spend, new, many complaints
		{spend: 80, tenure: 6, tickets: 1}, // loyal big spenders
		{spend: 45, tenure: 3, tickets: 3}, // steady middle
	}
	if err := s.ExecContext(ctx, `CREATE TABLE customers (spend FLOAT, tenure FLOAT, tickets FLOAT)`); err != nil {
		log.Fatal(err)
	}
	const n = 9000
	rng := rand.New(rand.NewSource(3))
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		a := arch[i%3]
		cols[0][i] = a.spend + rng.NormFloat64()*2
		cols[1][i] = a.tenure + rng.NormFloat64()*0.3
		cols[2][i] = a.tickets + rng.NormFloat64()*0.5
	}
	if err := s.DB.LoadColumns("customers", cols); err != nil {
		log.Fatal(err)
	}

	// Cluster in Distributed R.
	x, _, err := s.DB2DArrayContext(ctx, "customers", nil, "")
	if err != nil {
		log.Fatal(err)
	}
	km, err := verticadr.Kmeans(x, verticadr.KmeansOpts{K: 3, Seed: 11, InitPlus: true, MaxIter: 50})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-means converged=%v after %d iterations, objective %.1f\n",
		km.Converged, km.Iterations, km.Objective)
	for i, c := range km.Centers {
		fmt.Printf("  segment %d center: spend=%.1f tenure=%.1f tickets=%.1f\n", i, c[0], c[1], c[2])
	}

	// Deploy and assign segments in-database.
	if err := s.DeployModel("segments", "crm", "customer clustering", km); err != nil {
		log.Fatal(err)
	}
	res, err := s.QueryContext(ctx, `SELECT KmeansPredict(spend, tenure, tickets USING PARAMETERS model='segments') OVER (PARTITION BEST) FROM customers`)
	if err != nil {
		log.Fatal(err)
	}

	// Profile segments with SQL aggregates.
	counts := map[int64]int{}
	for _, v := range res.Batch.Cols[0].Ints {
		counts[v]++
	}
	fmt.Println("segment sizes:")
	for k := int64(0); k < 3; k++ {
		fmt.Printf("  segment %d: %d customers\n", k, counts[k])
	}
	stats, err := s.QueryContext(ctx, `SELECT count(*) AS n, avg(spend) AS avg_spend, avg(tickets) AS avg_tickets FROM customers WHERE tickets > 5`)
	if err != nil {
		log.Fatal(err)
	}
	row := stats.Rows()[0]
	fmt.Printf("high-complaint customers: n=%v avg_spend=%.1f avg_tickets=%.1f\n",
		row[0], row[1].(float64), row[2].(float64))
}
