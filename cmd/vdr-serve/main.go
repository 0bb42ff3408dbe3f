// Command vdr-serve runs the concurrent query-serving layer (internal/server)
// over a fresh in-process session: the deployment the paper's in-database
// prediction (§5) implies — many clients scoring against deployed models at
// once — exposed on a TCP line protocol that shares the transfer plane's
// frame layout.
//
// It listens on -addr over a database of -nodes segments; with -demo it first
// creates the serving fixture (table serve_pts, models serve_glm and
// serve_rf) so clients can issue prediction queries immediately.
//
// With -data DIR the server is durable: ingest is write-ahead-logged and
// fsync-acknowledged, startup recovers the previous run's state (checkpoint
// image + log replay), and a graceful shutdown writes a fresh checkpoint.
// -demo then creates only the fixture pieces the directory does not hold yet.
//
// Cluster mode: -cluster-peers lists every node's address (comma-separated)
// and -cluster-node says which entry this process is. The node opens its
// database with -cluster-shards segments (default: one per peer), serves the
// shard-level peer protocol, and fronts its own listener with a router, so a
// plain client connected to ANY node gets cluster-wide results ("every node
// is an initiator"). Tables segment across the shards with -cluster-replicas
// copies; reads fail over to a replica when a node dies.
//
//	vdr-serve -addr :5001 -cluster-peers :5001,:5002,:5003 -cluster-node 0 &
//	vdr-serve -addr :5002 -cluster-peers :5001,:5002,:5003 -cluster-node 1 &
//	vdr-serve -addr :5003 -cluster-peers :5001,:5002,:5003 -cluster-node 2 &
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"verticadr/internal/cliflags"
	"verticadr/internal/cluster"
	"verticadr/internal/core"
	"verticadr/internal/server"
	"verticadr/internal/telemetry"
)

// clusterOpts carries the -cluster-* flags; Peers == "" means plain mode.
type clusterOpts struct {
	Peers    string
	Node     int
	Shards   int
	Replicas int
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:5433", "listen address")
		dataDir    = cliflags.DataDir(flag.CommandLine)
		adminAddr  = flag.String("admin", "", "admin HTTP listen address for /metrics, /statements, /traces/recent, /healthz and pprof (empty = disabled)")
		drainWait  = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight queries")
		demo       = flag.Bool("demo", true, "preload the serve_pts table and the serve_glm and serve_rf models")
		nodes      = cliflags.Nodes(flag.CommandLine, 4)
		clPeers    = flag.String("cluster-peers", "", "cluster mode: comma-separated addresses of every node (this one included)")
		clNode     = flag.Int("cluster-node", 0, "cluster mode: this node's index into -cluster-peers")
		clShards   = flag.Int("cluster-shards", 0, "cluster mode: table segments across the cluster (0 = one per peer)")
		clReplicas = flag.Int("cluster-replicas", 0, "cluster mode: copies of each shard (0 = min(2, peers))")
		workers    = flag.Int("workers", 4, "Distributed R workers")
		maxConc    = flag.Int("max-concurrent", 8, "admission control: queries executing at once")
		maxQueue   = flag.Int("max-queue", 64, "admission control: bounded wait queue length")
		queueWait  = flag.Duration("queue-wait", 2*time.Second, "admission control: max slot wait before shedding")
		queryLimit = flag.Duration("query-timeout", 0, "per-query execution deadline (0 = none)")
	)
	flag.Parse()

	cl := clusterOpts{Peers: *clPeers, Node: *clNode, Shards: *clShards, Replicas: *clReplicas}
	if err := serve(context.Background(), *addr, *adminAddr, *dataDir, *drainWait, *demo, *nodes, *workers, cl, server.Config{
		MaxConcurrent: *maxConc,
		MaxQueue:      *maxQueue,
		QueueWait:     *queueWait,
		QueryTimeout:  *queryLimit,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "vdr-serve:", err)
		os.Exit(1)
	}
}

func serve(ctx context.Context, addr, adminAddr, dataDir string, drainWait time.Duration, demo bool, nodes, workers int, cl clusterOpts, cfg server.Config) error {
	var topo cluster.Topology
	clustered := cl.Peers != ""
	if clustered {
		var err error
		topo, err = cluster.Topology{
			Addrs:    strings.Split(cl.Peers, ","),
			Shards:   cl.Shards,
			Replicas: cl.Replicas,
		}.Normalize()
		if err != nil {
			return err
		}
		if cl.Node < 0 || cl.Node >= len(topo.Addrs) {
			return fmt.Errorf("vdr-serve: -cluster-node %d outside -cluster-peers", cl.Node)
		}
		// The local database's segment layout IS the cluster's shard layout:
		// open with one node per shard, and only this peer's shards fill.
		nodes = topo.Shards
		demo = false // fixtures are loaded through the router, not per node
	}
	sess, err := openSession(ctx, dataDir, demo, nodes, workers)
	if err != nil {
		return err
	}
	defer sess.Close()

	srv := server.New(sess, cfg)
	var (
		listenOpts []server.ListenOption
		adminOpts  []server.AdminOption
		router     *cluster.Router
	)
	if clustered {
		router, err = cluster.NewRouter(cluster.Config{
			Addrs:    topo.Addrs,
			Shards:   topo.Shards,
			Replicas: topo.Replicas,
		})
		if err != nil {
			return err
		}
		defer router.Close()
		peer := cluster.NewPeer(srv, topo, cl.Node)
		// Front the listener with the router (any node answers any query
		// cluster-wide) and serve the shard-level peer ops underneath it.
		listenOpts = append(listenOpts,
			server.WithFrontend(router),
			server.WithExtension(cluster.NodeExtension(peer, router)))
		adminOpts = append(adminOpts,
			server.WithClusterState(func() any { return router.Health() }))
	} else {
		// Plain mode still serves the peer ops (single-node topology), so the
		// unified client's Load/TableDef work against any server.
		topo := cluster.Topology{Addrs: []string{addr}, Shards: nodes, Replicas: 1}
		if topo, err = topo.Normalize(); err != nil {
			return err
		}
		listenOpts = append(listenOpts,
			server.WithExtension(cluster.NewPeer(srv, topo, 0)))
	}
	tcp, err := server.Listen(srv, addr, listenOpts...)
	if err != nil {
		return err
	}
	defer tcp.Close()
	if clustered {
		fmt.Printf("vdr-serve: cluster node %d/%d listening on %s (shards=%d replicas=%d, owns %v)\n",
			cl.Node, len(topo.Addrs), tcp.Addr(), topo.Shards, topo.Replicas, topo.OwnedShards(cl.Node))
	} else {
		fmt.Printf("vdr-serve: listening on %s (max-concurrent=%d queue=%d)\n",
			tcp.Addr(), cfg.MaxConcurrent, cfg.MaxQueue)
	}
	if demo {
		fmt.Printf("vdr-serve: try: %s\n", servePredictSQL)
		fmt.Printf("vdr-serve: try: %s\n", serveGlmPredictSQL)
	}

	var admin *http.Server
	if adminAddr != "" {
		admin = &http.Server{Addr: adminAddr, Handler: server.AdminHandler(srv, adminOpts...)}
		go func() {
			fmt.Printf("vdr-serve: admin endpoint on http://%s (/metrics /statements /traces/recent /healthz /debug/pprof/)\n", adminAddr)
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "vdr-serve: admin:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful shutdown: stop accepting and drain in-flight queries to the
	// deadline, mark the server closed so anything still queued fails fast,
	// then emit a final observability snapshot before the process exits.
	fmt.Printf("vdr-serve: shutting down (draining up to %v)\n", drainWait)
	if err := tcp.Shutdown(drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "vdr-serve: drain:", err)
	}
	srv.Close()
	if dataDir != "" {
		// A graceful exit leaves a fresh checkpoint behind, so the next start
		// replays (almost) nothing.
		if lsn, err := sess.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "vdr-serve: shutdown checkpoint:", err)
		} else {
			fmt.Printf("vdr-serve: shutdown checkpoint at lsn %d\n", lsn)
		}
	}
	if admin != nil {
		_ = admin.Close()
	}
	fmt.Fprintln(os.Stderr, "vdr-serve: final metrics")
	fmt.Fprint(os.Stderr, telemetry.Default().Dump())
	if snaps := srv.Statements().Snapshot(); len(snaps) > 0 {
		if js, err := json.MarshalIndent(snaps, "", "  "); err == nil {
			fmt.Fprintln(os.Stderr, "vdr-serve: statement statistics")
			fmt.Fprintln(os.Stderr, string(js))
		}
	}
	return nil
}

// openSession starts the session the server fronts: durable (recovering
// whatever a previous run committed) when dataDir is set, and with the demo
// fixture completed when asked for.
func openSession(ctx context.Context, dataDir string, demo bool, nodes, workers int) (*core.Session, error) {
	sess, err := core.Start(core.Config{DBNodes: nodes, DRWorkers: workers, DataDir: dataDir, Durable: dataDir != ""})
	if err != nil {
		return nil, err
	}
	if info := sess.DB.RecoveryInfo(); info != nil {
		fmt.Printf("vdr-serve: recovery: checkpoint lsn %d, replayed %d records / %d bytes in %v\n",
			info.CheckpointLSN, info.Replay.Records, info.Replay.Bytes, info.Replay.Elapsed)
		if info.Replay.Torn {
			fmt.Println("vdr-serve: recovery: torn final record discarded (crash mid-append)")
		}
	}
	if demo {
		created, err := seedFixture(ctx, sess)
		if err != nil {
			sess.Close()
			return nil, err
		}
		if len(created) == 0 {
			fmt.Println("vdr-serve: serving fixture recovered from previous run")
		} else {
			fmt.Printf("vdr-serve: serving fixture: created %s\n", strings.Join(created, ", "))
		}
	}
	return sess, nil
}
