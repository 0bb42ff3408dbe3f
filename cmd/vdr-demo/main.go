// vdr-demo narrates the paper's Figure 3 workflow step by step against a
// live in-process cluster, printing what each line of the R script does and
// the state it produces — a guided tour of the integration.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"verticadr"
	"verticadr/internal/cliflags"
)

func step(n int, what string) {
	fmt.Printf("\n[line %d] %s\n", n, what)
}

func main() {
	nodes := cliflags.Nodes(flag.CommandLine, 4)
	rows := cliflags.Rows(flag.CommandLine, 50000, "training rows")
	chaos := cliflags.ChaosFlags(flag.CommandLine)
	par := cliflags.Parallelism(flag.CommandLine)
	flag.Parse()

	if chaos.Arm() {
		defer func() { fmt.Printf("\n%s\n", chaos.Report()) }()
	}

	step(1, "library(distributedR); library(HPdregression)")
	step(3, fmt.Sprintf("distributedR_start() — %d DB nodes, %d DR workers, YARN-brokered", *nodes, *nodes))
	s, err := verticadr.Start(verticadr.Config{DBNodes: *nodes, UseYARN: true, Parallelism: *par})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	u := s.RM.Usage()
	fmt.Printf("  yarn: db queue holds %d cores, analytics queue holds %d cores\n",
		u.QueueCores["db"], u.QueueCores["analytics"])

	// ETL: the enterprise loads operational data into the database first.
	if err := s.ExecContext(ctx, `CREATE TABLE mytable (a FLOAT, b FLOAT, y FLOAT) SEGMENTED BY ROUND ROBIN`); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	n := *rows
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		cols[0][i], cols[1][i] = a, b
		cols[2][i] = 0.5 + 1.5*a + 4*b + rng.NormFloat64()*0.2
	}
	if err := s.DB.LoadColumns("mytable", cols); err != nil {
		log.Fatal(err)
	}
	sizes, _ := s.DB.SegmentSizes("mytable")
	fmt.Printf("  ETL loaded %d rows; segment sizes per node: %v\n", n, sizes)

	step(5, `data <- db2darray("mytable", ...) — Vertica Fast Transfer`)
	x, stats, err := s.DB2DArrayContext(ctx, "mytable", []string{"a", "b"}, "")
	if err != nil {
		log.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(ctx, "mytable", []string{"y"}, "")
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(stats.String(), "\n") {
		fmt.Printf("  %s\n", line)
	}

	step(6, "model <- hpdglm(data$Y, data$X, family=gaussian) — distributed Newton-Raphson")
	model, err := verticadr.GLM(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  converged in %d iterations\n", model.Iterations)

	step(7, "cv.hpdglm(...) — 5-fold cross validation")
	cv, err := verticadr.CrossValidate(x, y, verticadr.GLMOpts{Family: verticadr.Gaussian}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mean held-out deviance: %.4f\n", cv.MeanDeviance)

	step(8, "print(coef(model))")
	fmt.Printf("  intercept=%.3f a=%.3f b=%.3f (planted: 0.5, 1.5, 4)\n",
		model.Coefficients[0], model.Coefficients[1], model.Coefficients[2])

	step(9, "deploy.model(model, 'rModel') — serialize into Vertica DFS + R_Models")
	if err := s.DeployModel("rModel", "demo", "forecasting", model); err != nil {
		log.Fatal(err)
	}
	cat, _ := s.QueryContext(ctx, `SELECT * FROM R_Models`)
	fmt.Printf("  R_Models: %v\n", cat.Rows())

	step(10, "SELECT glmPredict(a, b USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable2")
	if err := s.ExecContext(ctx, `CREATE TABLE mytable2 (a FLOAT, b FLOAT)`); err != nil {
		log.Fatal(err)
	}
	if err := s.ExecContext(ctx, `INSERT INTO mytable2 VALUES (1.0, 1.0), (-1.0, 0.5), (0.0, 0.0)`); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := s.QueryContext(ctx, `SELECT glmPredict(a, b USING PARAMETERS model='rModel') OVER (PARTITION BEST) FROM mytable2`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d in-database predictions in %v:\n", res.Len(), time.Since(start))
	for _, row := range res.Rows() {
		fmt.Printf("    %.3f\n", row[0].(float64))
	}
	fmt.Println("\nworkflow complete.")
}
