// Forecast is the financial-forecasting scenario of §7.3.1 ("regression
// analysis ... widely used by financial firms for forecasting, such as
// predicting sales based on customer characteristics"): a linear model with
// k-fold cross-validation, compared against a random forest on the same
// data, with the winner deployed for in-database scoring.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"verticadr"
)

func main() {
	s, err := verticadr.Start(verticadr.Config{DBNodes: 4, DRWorkers: 4, InstancesPerWorker: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Sales respond linearly to ad spend and store traffic, plus a
	// non-linear seasonal kink the forest can catch but the line cannot.
	if err := s.ExecContext(ctx, `CREATE TABLE sales (ad_spend FLOAT, traffic FLOAT, season FLOAT, revenue FLOAT)`); err != nil {
		log.Fatal(err)
	}
	const n = 24000
	rng := rand.New(rand.NewSource(17))
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		ad, tr, se := rng.Float64()*10, rng.Float64()*5, rng.Float64()
		rev := 50 + 4*ad + 9*tr + rng.NormFloat64()
		if se > 0.75 { // holiday quarter
			rev += 25
		}
		cols[0][i], cols[1][i], cols[2][i], cols[3][i] = ad, tr, se, rev
	}
	if err := s.DB.LoadColumns("sales", cols); err != nil {
		log.Fatal(err)
	}

	x, _, err := s.DB2DArrayContext(ctx, "sales", []string{"ad_spend", "traffic", "season"}, "")
	if err != nil {
		log.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(ctx, "sales", []string{"revenue"}, "")
	if err != nil {
		log.Fatal(err)
	}

	// Candidate 1: linear model + cross-validation.
	lm, err := verticadr.LM(x, y)
	if err != nil {
		log.Fatal(err)
	}
	cv, err := verticadr.CrossValidate(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian}, 5)
	if err != nil {
		log.Fatal(err)
	}
	lmRMSE := math.Sqrt(cv.MeanDeviance / (float64(n) / 5))
	fmt.Printf("linear model: coefficients %.2f, CV RMSE %.2f\n", lm.Coefficients, lmRMSE)

	// Candidate 2: random forest (captures the seasonal kink).
	rf, err := verticadr.RandomForest(x, y, verticadr.ForestOpts{Trees: 24, MaxDepth: 8, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	// Hold-out check on a fresh sample.
	var rfErr, lmErr float64
	const holdout = 2000
	for i := 0; i < holdout; i++ {
		ad, tr, se := rng.Float64()*10, rng.Float64()*5, rng.Float64()
		truth := 50 + 4*ad + 9*tr
		if se > 0.75 {
			truth += 25
		}
		row := []float64{ad, tr, se}
		rfErr += sq(rf.Predict(row) - truth)
		lmErr += sq(lm.Predict(row) - truth)
	}
	fmt.Printf("holdout RMSE: forest %.2f vs linear %.2f\n",
		math.Sqrt(rfErr/holdout), math.Sqrt(lmErr/holdout))

	// Deploy both; score next quarter's plan in-database with each.
	if err := s.DeployModel("rev_lm", "finance", "linear forecast", lm); err != nil {
		log.Fatal(err)
	}
	if err := s.DeployModel("rev_rf", "finance", "forest forecast", rf); err != nil {
		log.Fatal(err)
	}
	if err := s.ExecContext(ctx, `CREATE TABLE plan (ad_spend FLOAT, traffic FLOAT, season FLOAT)`); err != nil {
		log.Fatal(err)
	}
	if err := s.ExecContext(ctx, `INSERT INTO plan VALUES (8.0, 4.0, 0.9), (2.0, 1.0, 0.2), (5.0, 2.5, 0.8)`); err != nil {
		log.Fatal(err)
	}
	lmPred, err := s.QueryContext(ctx, `SELECT GlmPredict(ad_spend, traffic, season USING PARAMETERS model='rev_lm') OVER (PARTITION BEST) FROM plan`)
	if err != nil {
		log.Fatal(err)
	}
	rfPred, err := s.QueryContext(ctx, `SELECT RfPredict(ad_spend, traffic, season USING PARAMETERS model='rev_rf') OVER (PARTITION BEST) FROM plan`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("planned-quarter forecasts (linear | forest):")
	for i := range lmPred.Rows() {
		fmt.Printf("  scenario %d: %.1f | %.1f\n", i,
			lmPred.Batch.Cols[0].Floats[i], rfPred.Batch.Cols[0].Floats[i])
	}
	models, err := s.QueryContext(ctx, `SELECT model, type, size FROM R_Models ORDER BY model`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployed models:", models.Rows())
}

func sq(v float64) float64 { return v * v }
