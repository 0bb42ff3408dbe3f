package main

import (
	"context"
	"fmt"
	"net"
	"os"

	"verticadr"
	"verticadr/internal/cluster"
	"verticadr/internal/colstore"
	"verticadr/internal/core"
	"verticadr/internal/server"
	"verticadr/internal/vft"
)

// Prepared statements, identical on every deployment.
var statements = map[string]string{
	"point":      `SELECT x0, x1 FROM events WHERE k = ?`,
	"score":      `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='m4') OVER (PARTITION BEST) FROM events WHERE id >= ? AND id < ?`,
	"agg_grp":    `SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events GROUP BY grp ORDER BY grp`,
	"agg_region": `SELECT region, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events GROUP BY region ORDER BY region`,
	"join":       `SELECT d.grp, count(*) AS n, sum(events.x0) AS s FROM events JOIN dim d ON events.dim_id = d.id GROUP BY d.grp ORDER BY d.grp`,
	"fetch":      `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='m4') OVER (PARTITION BEST) FROM events`,
	"read":       `SELECT grp, count(*) AS n, sum(x0) AS s, min(x1) AS m FROM events_in WHERE id < ? GROUP BY grp ORDER BY grp`,
}

const (
	predictSQL = `SELECT GlmPredict(f0, f1, f2, f3, f4, f5, f6, f7 USING PARAMETERS model='m8') OVER (PARTITION BEST) FROM pts`
	// One-shot (unprepared) statement of the mix: the class that goes through
	// the server's plan cache.
	pointPredictSQL = `SELECT GlmPredict(x0, x1, x2, x3 USING PARAMETERS model='m4') OVER (PARTITION BEST) FROM events WHERE k = %d`
	loadChunkRows   = 65536
)

// node is one database process-equivalent: session, serving layer, listener.
type node struct {
	sess   *core.Session
	srv    *server.Server
	router *cluster.Router // nil on single-node deployments
}

// deployment is a running system under test plus the harness's connections.
type deployment struct {
	wl      *workload
	nodes   []*node
	addrs   []string // listener per node; addrs[0] is the front door
	clients []*verticadr.Client
	raw     *verticadr.ServerClient // bare connection to node 0 (ping, bulk load)
	vftTCP  *vft.TCPService
	dataDir string // durable deployments only
	closers []func()
}

// sess is the session the in-process phases run against (node 0).
func (d *deployment) sess() *core.Session { return d.nodes[0].sess }

func (d *deployment) onClose(f func()) { d.closers = append(d.closers, f) }

// Close releases everything in reverse order of acquisition. It is safe on a
// nil or partly built deployment, which is how every set-up error path cleans
// up. A durable deployment's directory is left in place for the recovery
// phase; the run's work directory, removed on exit, contains it.
func (d *deployment) Close() {
	if d == nil {
		return
	}
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them: cluster peers must know each other's addresses before they listen.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

func sessionConfig(wl *workload, dataDir string) core.Config {
	return core.Config{
		DBNodes: wl.dbNodes, DRWorkers: wl.dbNodes, InstancesPerWorker: 1,
		DataDir: dataDir, Durable: dataDir != "",
	}
}

func (d *deployment) startSingle() error {
	sess, err := core.Start(sessionConfig(d.wl, d.dataDir))
	if err != nil {
		return err
	}
	d.onClose(sess.Close)
	srv := server.New(sess, server.Config{})
	topo, err := cluster.Topology{Addrs: []string{"local"}, Shards: d.wl.dbNodes, Replicas: 1}.Normalize()
	if err != nil {
		return err
	}
	// The peer extension serves COPY and table definitions to the unified
	// client on a plain server, exactly as cmd/vdr-serve wires it.
	tcp, err := server.Listen(srv, "127.0.0.1:0", server.WithExtension(cluster.NewPeer(srv, topo, 0)))
	if err != nil {
		return err
	}
	d.onClose(func() { _ = tcp.Close() })
	d.nodes = []*node{{sess: sess, srv: srv}}
	d.addrs = []string{tcp.Addr()}
	return nil
}

func (d *deployment) startCluster() error {
	const peers = 3
	addrs, err := freeAddrs(peers)
	if err != nil {
		return err
	}
	topo, err := cluster.Topology{Addrs: addrs, Shards: d.wl.dbNodes, Replicas: 2}.Normalize()
	if err != nil {
		return err
	}
	for i := range addrs {
		sess, err := core.Start(sessionConfig(d.wl, ""))
		if err != nil {
			return err
		}
		d.onClose(sess.Close)
		srv := server.New(sess, server.Config{})
		router, err := cluster.NewRouter(cluster.Config{Addrs: addrs, Shards: topo.Shards, Replicas: topo.Replicas})
		if err != nil {
			return err
		}
		d.onClose(router.Close)
		tcp, err := server.Listen(srv, addrs[i], server.WithFrontend(router),
			server.WithExtension(cluster.NodeExtension(cluster.NewPeer(srv, topo, i), router)))
		if err != nil {
			return fmt.Errorf("peer %d listen on %s: %w", i, addrs[i], err)
		}
		d.onClose(func() { _ = tcp.Close() })
		d.nodes = append(d.nodes, &node{sess: sess, srv: srv, router: router})
	}
	d.addrs = addrs
	return nil
}

// load moves a generated table into the deployment: in-process COPY on a
// single node, the front-door COPY op (router → shards → replicas) on the
// cluster.
func (d *deployment) load(ctx context.Context, table string, rows int, batch func(lo, hi int) *colstore.Batch) error {
	if len(d.nodes) == 1 {
		return d.sess().Load(table, batch(0, rows))
	}
	for lo := 0; lo < rows; lo += loadChunkRows {
		if err := cluster.ClientLoad(ctx, d.raw, table, batch(lo, min(lo+loadChunkRows, rows))); err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the workload's deployment from nothing: start, dial, create,
// load, index, deploy, checkpoint (durable), prepare. The caller times it:
// its wall time plus generation is one sample of setup_s. On an error
// everything started so far is closed again.
func setUp(ctx context.Context, wl *workload, ds *dataset, workDir string) (*deployment, error) {
	d := &deployment{wl: wl}
	if err := d.build(ctx, ds, workDir); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) build(ctx context.Context, ds *dataset, workDir string) (err error) {
	wl := d.wl
	if wl.durable {
		if d.dataDir, err = os.MkdirTemp(workDir, "data-"); err != nil {
			return err
		}
	}
	if wl.clustered {
		err = d.startCluster()
	} else {
		err = d.startSingle()
	}
	if err != nil {
		return err
	}
	if d.raw, err = verticadr.RawDial(d.addrs[0]); err != nil {
		return err
	}
	d.onClose(func() { _ = d.raw.Close() })
	for i := 0; i < 2; i++ {
		cl, err := verticadr.Dial(ctx, verticadr.ClusterConfig{Addrs: d.addrs[:1]})
		if err != nil {
			return err
		}
		d.onClose(func() { _ = cl.Close() })
		d.clients = append(d.clients, cl)
	}
	for _, q := range ddl {
		if err = d.clients[0].Exec(ctx, q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	tables := []struct {
		name  string
		rows  int
		batch func(lo, hi int) *colstore.Batch
	}{
		{"pts", ds.ptsRows, ds.ptsBatch},
		{"events", ds.eventsRows, ds.events.batch},
		{"events_in", ds.inRows, ds.in.batch},
		{"dim", ds.dimRows, ds.dimBatch},
	}
	for _, t := range tables {
		if err = d.load(ctx, t.name, t.rows, t.batch); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	for _, q := range indexDDL {
		if err = d.clients[0].Exec(ctx, q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	for _, n := range d.nodes {
		if err = n.sess.DeployModel("m8", "bench", "pipeline model", pipeGLM); err != nil {
			return err
		}
		if err = n.sess.DeployModel("m4", "bench", "serving model", serveGLM); err != nil {
			return err
		}
	}
	if wl.durable {
		// Recovery then replays exactly the commits the measured rounds make.
		if _, err = d.sess().Checkpoint(); err != nil {
			return err
		}
	}
	// Prepared statements are server-side (or router-side) state shared by
	// every connection to node 0.
	for name, sql := range statements {
		if err = d.clients[0].Prepare(ctx, name, sql); err != nil {
			return fmt.Errorf("prepare %s: %w", name, err)
		}
	}
	if d.vftTCP, err = vft.ServeTCP(d.sess().Hub, wl.dbNodes); err != nil {
		return err
	}
	d.onClose(func() { _ = d.vftTCP.Close() })
	return nil
}
