// vdr-bench regenerates the paper's evaluation: every figure's series is
// printed as an aligned table, either all at once or one experiment at a
// time. Simulated figures run the calibrated discrete-event model at the
// paper's cluster scale; -real additionally executes the reduced-scale
// measured experiments against the live engines.
//
// Usage:
//
//	vdr-bench                      # print every simulated figure
//	vdr-bench -experiment fig13    # one figure
//	vdr-bench -real                # also run the real-engine experiments
//	vdr-bench -metrics out.json    # dump the telemetry registry afterwards
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"verticadr/internal/bench"
	"verticadr/internal/cliflags"
	"verticadr/internal/telemetry"
)

func main() {
	experiment := flag.String("experiment", "", "single experiment id (fig1, fig12..fig21, tab1, fig10)")
	real := flag.Bool("real", false, "also run reduced-scale measured experiments on the live engines")
	metrics := flag.String("metrics", "", "write the telemetry registry as JSON to this file after the run")
	chaos := cliflags.ChaosFlags(flag.CommandLine)
	par := cliflags.Parallelism(flag.CommandLine)
	flag.Parse()

	cliflags.ApplyParallelism(*par)
	chaos.Arm()
	ctx := context.Background()

	c := bench.DefaultCalib()
	figs := bench.AllFigures(c)
	byID := map[string]*bench.Figure{}
	for _, f := range figs {
		byID[f.ID] = f
	}

	switch {
	case *experiment == "":
		for _, f := range figs {
			fmt.Println(f)
		}
	case *experiment == "tab1" || *experiment == "fig10":
		runChecks(ctx, *experiment)
	default:
		f, ok := byID[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: fig1 fig12..fig21 tab1 fig10\n", *experiment)
			os.Exit(2)
		}
		fmt.Println(f)
	}

	if *real {
		runReal(ctx)
	}

	if rep := chaos.Report(); rep != "" {
		fmt.Printf("\n%s\n", rep)
	}

	if *metrics != "" {
		data, err := telemetry.Default().SnapshotJSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metrics, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry registry written to %s\n", *metrics)
	}
}

func runChecks(ctx context.Context, which string) {
	env, err := bench.NewEnv(3, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	switch which {
	case "tab1":
		if err := env.Table1Check(); err != nil {
			log.Fatalf("Table 1 check FAILED: %v", err)
		}
		fmt.Println("Table 1 constructs verified: darray/dframe/dlist(npartitions=), partitionsize, clone")
	case "fig10":
		if err := env.Fig10Check(ctx); err != nil {
			log.Fatalf("Fig 10 check FAILED: %v", err)
		}
		fmt.Println("Fig 10 verified: R_Models catalog matches (model | owner | type | size | description)")
	}
}

func runReal(ctx context.Context) {
	fmt.Println("== real-engine measurements (reduced scale, this machine) ==")
	env, err := bench.NewEnv(4, 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	if err := env.LoadFeatureTable(ctx, "bench_t", 60000, 6, 1); err != nil {
		log.Fatal(err)
	}
	tr, err := env.RealTransferComparison(ctx, "bench_t", 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transfer %d rows: ODBC %v, VFT %v (%.1fx)\n",
		tr.Rows, tr.ODBC, tr.VFT, tr.ODBC.Seconds()/tr.VFT.Seconds())

	ch, err := env.RunChaosTransfer(ctx, "bench_t", 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chaos transfer %d rows: clean %v, under faults %v (%d injected, %d retransmits, %d dups absorbed)\n",
		ch.Rows, ch.CleanTime, ch.ChaosTime, ch.Injected, ch.Retransmits, ch.DupChunks)

	km, err := env.RunRealKmeansCompare(20000, 8, 5, 10, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-means (20k x 8, K=5): DR obj %.1f in %v; Spark obj %.1f in %v\n",
		km.DRObjective, km.DRTime, km.SparkObjective, km.SparkTime)

	sc, err := env.RunSolverComparison(20000, 6, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solvers (20k x 6): Newton-Raphson %v vs QR %v, max coefficient diff %.2e\n",
		sc.NRTime, sc.QRTime, sc.MaxCoefDiff)

	ab, err := env.RunTransferPolicyAblation(ctx, 40000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy ablation on fully skewed table: locality parts %v, uniform parts %v\n",
		ab.LocalitySizes, ab.UniformSizes)

	if err := env.Table1Check(); err != nil {
		log.Fatalf("Table 1 check FAILED: %v", err)
	}
	if err := env.Fig10Check(ctx); err != nil {
		log.Fatalf("Fig 10 check FAILED: %v", err)
	}
	fmt.Println("Table 1 and Fig 10 checks passed")
}
