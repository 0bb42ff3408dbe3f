// vdr-sql is an interactive SQL shell against an in-process cluster: it
// starts a database + Distributed R session, seeds an optional demo table,
// and executes statements from stdin. The prediction UDFs and R_Models are
// installed, so the full Figure 3 SQL surface is available.
//
// Usage:
//
//	vdr-sql [-nodes 4] [-demo] [-data DIR]
//	> SELECT count(*) FROM demo;
//	> PROFILE SELECT count(*) FROM demo;           -- per-operator rows + timings
//	> EXPLAIN SELECT count(*) FROM demo;           -- physical plan, est vs actual rows
//	> EXPLAIN (FORMAT JSON) SELECT ...;            -- same plan as a JSON document
//	> \explain                                     -- explain every SELECT
//	> \profile                                     -- profile every SELECT
//	> \metrics                                     -- dump the telemetry registry
//	> \statements                                  -- per-statement statistics (calls, errors, p50/p95/p99)
//	> \recover                                     -- what startup recovery did (checkpoint + log replay)
//	> \checkpoint                                  -- materialize a checkpoint and truncate the log
//
// With -data DIR the session is durable: every commit is write-ahead-logged
// and fsynced before it is acknowledged, and restarting vdr-sql with the same
// -data recovers the previous state (ARIES-style: checkpoint image + redo).
//
//	> SELECT GlmPredict(a, b USING PARAMETERS model='m') OVER (PARTITION BEST) FROM demo;
//
// Statements run through the serving layer (plan cache + statement
// statistics), so repeated queries skip parsing and \statements accumulates
// the pg_stat_statements-style view.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"verticadr"
	"verticadr/internal/cliflags"
	"verticadr/internal/telemetry"
)

func main() {
	nodes := cliflags.Nodes(flag.CommandLine, 4)
	data := cliflags.DataDir(flag.CommandLine)
	demo := flag.Bool("demo", false, "create and fill a demo table plus a deployed model")
	connect := flag.String("connect", "", "comma-separated vdr-serve addresses: run as a remote shell against a (clustered) server instead of in-process")
	chaos := cliflags.ChaosFlags(flag.CommandLine)
	par := cliflags.Parallelism(flag.CommandLine)
	flag.Parse()

	if chaos.Arm() {
		fmt.Println("\\metrics shows faults_injected_total")
	}

	ctx := context.Background()
	if *connect != "" {
		if err := remoteShell(ctx, *connect); err != nil {
			log.Fatal(err)
		}
		return
	}

	s, err := verticadr.Start(verticadr.Config{DBNodes: *nodes, Parallelism: *par, DataDir: *data, Durable: *data != ""})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	fmt.Printf("connected: %d-node database, %d Distributed R workers\n", *nodes, *nodes)
	if *data != "" {
		printRecovery(s)
	}

	if *demo {
		if _, err := s.DB.TableDef("demo"); err != nil {
			seedDemo(ctx, s)
		} else {
			fmt.Println(`demo table "demo" recovered from previous run`)
		}
	}

	// Statements route through the serving layer: the shell gets the plan
	// cache and per-statement statistics for free.
	srv := verticadr.NewServer(s, verticadr.ServerConfig{})
	defer srv.Close()

	profileAll := false
	explainAll := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("vdr> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "\\q" || line == "exit" || line == "quit":
			return
		case line == "\\d":
			for _, t := range s.DB.Catalog().List() {
				def, _ := s.DB.TableDef(t)
				rows, _ := s.DB.TableRows(t)
				fmt.Printf("  %s (%d rows, %s)\n", t, rows, def.Seg)
			}
		case line == "\\profile":
			profileAll = !profileAll
			fmt.Printf("profile mode %v\n", map[bool]string{true: "on", false: "off"}[profileAll])
		case line == "\\explain":
			explainAll = !explainAll
			fmt.Printf("explain mode %v\n", map[bool]string{true: "on", false: "off"}[explainAll])
		case line == "\\metrics":
			fmt.Print(telemetry.Default().PromText())
		case line == "\\recover":
			printRecovery(s)
		case line == "\\checkpoint":
			lsn, err := s.Checkpoint()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("checkpoint written at lsn %d; log truncated\n", lsn)
		case line == "\\statements":
			snaps := srv.Statements().Snapshot()
			if len(snaps) == 0 {
				fmt.Println("no statements recorded yet")
				break
			}
			fmt.Printf("%7s %6s %10s %10s %10s %10s  %s\n", "calls", "errs", "total_s", "p50_s", "p95_s", "p99_s", "statement")
			for _, sn := range snaps {
				fmt.Printf("%7d %6d %10.4f %10.6f %10.6f %10.6f  %s\n",
					sn.Calls, sn.Errors, sn.TotalSecs, sn.P50Secs, sn.P95Secs, sn.P99Secs, sn.SQL)
			}
		default:
			q := line
			if profileAll && hasPrefixFold(q, "SELECT") {
				q = "PROFILE " + q
			} else if explainAll && hasPrefixFold(q, "SELECT") {
				q = "EXPLAIN " + q
			}
			res, err := srv.Query(ctx, q)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if res.Profile != nil {
				fmt.Print(res.Profile.String())
			}
			if len(res.Schema()) > 0 {
				names := make([]string, len(res.Schema()))
				for i, c := range res.Schema() {
					names[i] = c.Name
				}
				fmt.Println(strings.Join(names, " | "))
				for i, row := range res.Rows() {
					if i >= 50 {
						fmt.Printf("... (%d rows total)\n", res.Len())
						break
					}
					parts := make([]string, len(row))
					for j, v := range row {
						parts[j] = fmt.Sprintf("%v", v)
					}
					fmt.Println(strings.Join(parts, " | "))
				}
			}
			fmt.Println("OK")
		}
		fmt.Print("vdr> ")
	}
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// printRecovery reports what startup recovery did (\recover).
func printRecovery(s *verticadr.Session) {
	info := s.DB.RecoveryInfo()
	if info == nil {
		fmt.Println("not a durable session (start with -data DIR)")
		return
	}
	if info.CheckpointDir != "" {
		fmt.Printf("recovery: checkpoint %s (lsn %d) loaded\n", info.CheckpointDir, info.CheckpointLSN)
	} else {
		fmt.Println("recovery: no checkpoint, full log replay")
	}
	fmt.Printf("recovery: replayed %d records / %d bytes in %v (lsn %d..%d)\n",
		info.Replay.Records, info.Replay.Bytes, info.Replay.Elapsed, info.Replay.Start, info.Replay.End)
	fmt.Printf("recovery: image %v, redo %v: log reader %v, waiting on apply %v\n",
		info.ImageLoad, info.Replay.Elapsed, info.Replay.Elapsed-info.ApplyWait, info.ApplyWait)
	if info.Replay.Torn {
		fmt.Println("recovery: torn final record discarded (crash mid-append)")
	}
	if durable, ok := s.DB.WALStats(); ok {
		fmt.Printf("wal: durable lsn %d\n", durable)
	}
}

func seedDemo(ctx context.Context, s *verticadr.Session) {
	if err := s.ExecContext(ctx, `CREATE TABLE demo (a FLOAT, b FLOAT, y FLOAT)`); err != nil {
		log.Fatal(err)
	}
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		cols[0][i], cols[1][i] = a, b
		cols[2][i] = 1 + 2*a - 3*b + rng.NormFloat64()*0.1
	}
	if err := s.DB.LoadColumns("demo", cols); err != nil {
		log.Fatal(err)
	}
	x, _, err := s.DB2DArrayContext(ctx, "demo", []string{"a", "b"}, "")
	if err != nil {
		log.Fatal(err)
	}
	y, _, err := s.DB2DArrayContext(ctx, "demo", []string{"y"}, "")
	if err != nil {
		log.Fatal(err)
	}
	model, err := verticadr.LM(x, y)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.DeployModel("m", "demo", "demo regression", model); err != nil {
		log.Fatal(err)
	}
	fmt.Println(`demo table "demo" (5000 rows) and model 'm' ready; try:`)
	fmt.Println(`  SELECT count(*), avg(y) FROM demo;`)
	fmt.Println(`  SELECT * FROM R_Models;`)
	fmt.Println(`  SELECT GlmPredict(a, b USING PARAMETERS model='m') OVER (PARTITION BEST) FROM demo LIMIT 5;`)
}

// remoteShell runs the shell against running vdr-serve nodes instead of an
// in-process session: statements route through the unified cluster client,
// which fails idempotent reads over to another node when one dies.
func remoteShell(ctx context.Context, addrs string) error {
	cfg := verticadr.ClusterConfig{Addrs: strings.Split(addrs, ",")}
	cl, err := verticadr.Dial(ctx, cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("connected: %d node(s) — %s\n", len(cfg.Addrs), addrs)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("vdr> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "\\q" || line == "exit" || line == "quit":
			return nil
		case line == "\\health":
			for _, h := range cl.Health(ctx) {
				state := "up"
				if !h.Up {
					state = "down"
				}
				fmt.Printf("  node %d %s: %s, shards %v\n", h.Node, h.Addr, state, h.Shards)
			}
		default:
			res, err := cl.Query(ctx, line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if res.Profile != nil {
				if js, err := json.MarshalIndent(res.Profile, "", "  "); err == nil {
					fmt.Println(string(js))
				}
			}
			if len(res.Cols) > 0 {
				fmt.Println(strings.Join(res.Cols, " | "))
				for i, row := range res.Rows {
					if i >= 50 {
						fmt.Printf("... (%d rows total)\n", len(res.Rows))
						break
					}
					parts := make([]string, len(row))
					for j, v := range row {
						parts[j] = fmt.Sprintf("%v", v)
					}
					fmt.Println(strings.Join(parts, " | "))
				}
			}
			fmt.Println("OK")
		}
		fmt.Print("vdr> ")
	}
	return nil
}
