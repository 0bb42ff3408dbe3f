// Quickstart reproduces the paper's Figure 3 script end to end: start a
// session, load a table's features into a distributed array with Vertica
// Fast Transfer, fit a distributed GLM, cross-validate it, print the
// coefficients, deploy the model into the database, and run in-database
// prediction with SQL.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"verticadr"
)

func main() {
	// Lines 1-3: start Distributed R alongside a 4-node database.
	s, err := verticadr.Start(verticadr.Config{DBNodes: 4, DRWorkers: 4, InstancesPerWorker: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Prepare a table: y = 3 + 2*a - b + noise.
	if err := s.ExecContext(ctx, `CREATE TABLE mytable (a FLOAT, b FLOAT, y FLOAT) SEGMENTED BY ROUND ROBIN`); err != nil {
		log.Fatal(err)
	}
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		cols[0][i], cols[1][i] = a, b
		cols[2][i] = 3 + 2*a - b + rng.NormFloat64()*0.1
	}
	if err := s.DB.LoadColumns("mytable", cols); err != nil {
		log.Fatal(err)
	}

	// Line 5: data <- db2darray("mytable", ...).
	x, stats, err := s.DB2DArrayContext(ctx, "mytable", []string{"a", "b"}, "")
	if err != nil {
		log.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(ctx, "mytable", []string{"y"}, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows via VFT (%s policy, %d chunks, %d bytes)\n",
		x.Rows(), stats.Policy, stats.Chunks, stats.Bytes)

	// Line 6: model <- hpdglm(...).
	model, err := verticadr.GLM(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian})
	if err != nil {
		log.Fatal(err)
	}

	// Line 7: cv.hpdglm(...).
	cv, err := verticadr.CrossValidate(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian}, 5)
	if err != nil {
		log.Fatal(err)
	}

	// Line 8: print(coef(model)).
	fmt.Printf("coefficients: intercept=%.3f a=%.3f b=%.3f (want 3, 2, -1)\n",
		model.Coefficients[0], model.Coefficients[1], model.Coefficients[2])
	fmt.Printf("cross-validation mean deviance: %.4f over %d folds\n", cv.MeanDeviance, cv.Folds)

	// Line 9: deploy.model(model, 'rModel').
	if err := s.DeployModel("rModel", "quickstart", "forecasting", model); err != nil {
		log.Fatal(err)
	}
	catalog, err := s.QueryContext(ctx, `SELECT model, owner, type, size FROM R_Models`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("R_Models:", catalog.Rows())

	// Lines 10-11: in-database prediction over new data.
	if err := s.ExecContext(ctx, `CREATE TABLE mytable2 (a FLOAT, b FLOAT)`); err != nil {
		log.Fatal(err)
	}
	if err := s.ExecContext(ctx, `INSERT INTO mytable2 VALUES (1.0, 0.0), (0.0, 1.0), (2.0, 2.0)`); err != nil {
		log.Fatal(err)
	}
	res, err := s.QueryContext(ctx, `SELECT glmPredict(a, b USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable2`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("in-database predictions (want ~5, ~2, ~5):")
	for _, row := range res.Rows() {
		fmt.Printf("  %.3f\n", row[0].(float64))
	}
}
