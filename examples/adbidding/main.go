// Adbidding models the media-buying scenario that motivates the paper (§1):
// a platform like RocketFuel trains an offline click-probability model on
// historical user features, deploys it into the database, and then scores
// newly arriving ad-auction rows in-database, in bulk and with low latency —
// the workload R alone cannot serve ("deployment of models can occur on
// terabytes of new data, and may have real-time constraints").
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"verticadr"
)

// planted click model: logit(p) = -1.2 + 2.5*siteAffinity + 1.0*income -
// 0.8*adsSeen. Feature generation mirrors "websites visited and
// demographics".
var beta = []float64{-1.2, 2.5, 1.0, -0.8}

func genAuctionCols(rng *rand.Rand, n int, withClicks bool) [][]float64 {
	cols := make([][]float64, 3, 4)
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	var clicks []float64
	if withClicks {
		clicks = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		site, income, seen := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		cols[0][i], cols[1][i], cols[2][i] = site, income, seen
		if withClicks {
			eta := beta[0] + beta[1]*site + beta[2]*income + beta[3]*seen
			if rng.Float64() < 1/(1+math.Exp(-eta)) {
				clicks[i] = 1
			}
		}
	}
	if withClicks {
		cols = append(cols, clicks)
	}
	return cols
}

func main() {
	s, err := verticadr.Start(verticadr.Config{DBNodes: 4, DRWorkers: 4, InstancesPerWorker: 2, UseYARN: true})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	// --- Offline: historical impressions with click outcomes. ---
	if err := s.ExecContext(ctx, `CREATE TABLE impressions (site_affinity FLOAT, income FLOAT, ads_seen FLOAT, clicked FLOAT)`); err != nil {
		log.Fatal(err)
	}
	if err := s.DB.LoadColumns("impressions", genAuctionCols(rng, 40000, true)); err != nil {
		log.Fatal(err)
	}

	// Train a logistic model in Distributed R.
	x, _, err := s.DB2DArrayContext(ctx, "impressions", []string{"site_affinity", "income", "ads_seen"}, "")
	if err != nil {
		log.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(ctx, "impressions", []string{"clicked"}, "")
	if err != nil {
		log.Fatal(err)
	}
	model, err := verticadr.GLM(x, y, verticadr.GLMOpts{Family: verticadr.Binomial})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("click model coefficients: %.2f (planted %.1f)\n", model.Coefficients, beta)

	if err := s.DeployModel("ctr", "adplatform", "click-through-rate", model); err != nil {
		log.Fatal(err)
	}

	// --- Online: auctions stream into the database; score them in-place. ---
	if err := s.ExecContext(ctx, `CREATE TABLE auctions (site_affinity FLOAT, income FLOAT, ads_seen FLOAT)`); err != nil {
		log.Fatal(err)
	}
	if err := s.DB.LoadColumns("auctions", genAuctionCols(rng, 100000, false)); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := s.QueryContext(ctx, `SELECT GlmPredict(site_affinity, income, ads_seen USING PARAMETERS model='ctr') OVER (PARTITION BEST) FROM auctions`)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	// Bid on everything above a click-probability threshold.
	const threshold = 0.5
	bids := 0
	for _, p := range res.Batch.Cols[0].Floats {
		if p >= threshold {
			bids++
		}
	}
	fmt.Printf("scored %d auctions in-database in %v (%.0f rows/s)\n",
		res.Len(), elapsed, float64(res.Len())/elapsed.Seconds())
	fmt.Printf("bidding on %d auctions (p >= %.2f)\n", bids, threshold)
}
