package vft

import (
	"context"
	"fmt"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/telemetry"
)

// DB is the slice of the database that VFT needs: metadata plus the ability
// to run the export query under a context, so cancellation reaches the
// query's scan. internal/vertica.DB satisfies it.
type DB interface {
	TableDef(name string) (*catalog.TableDef, error)
	NumNodes() int
	ExecContext(ctx context.Context, sql string) error
}

// LoadTCPContext is LoadContext with a data plane that crosses real TCP
// sockets: worker listeners (svc) receive the database-side UDF instances'
// messages over the serving transport, exactly as when the database and
// Distributed R run on different machines. Concurrent loads through one svc
// never share a connection in flight, nor close each other's.
func LoadTCPContext(ctx context.Context, db DB, c *dr.Cluster, hub *Hub, svc *TCPService, table string, cols []string, policy string, psize int) (*darray.DFrame, *Stats, error) {
	return load(ctx, db, c, hub, svc.sender, table, cols, policy, psize)
}

// LoadContext performs one complete fast transfer (the db2darray internals
// of §3):
//
//  1. Declare an empty distributed data frame — partitions sized later.
//  2. Workers stand by (their staging areas live in the Hub).
//  3. The master issues ONE SQL query invoking ExportToDistributedR with the
//     worker/network metadata, partition-size hint and policy (Fig. 4).
//  4. Vertica fans out UDF instances per node that stream encoded chunks.
//  5. Finalize fills the frame partitions with the staged batches, in
//     order, on the workers.
//
// With PolicyLocality the frame has one partition per database node,
// co-numbered with workers (requires equal counts); with PolicyUniform one
// partition per worker with near-even sizes. Cancellation propagates into
// the export query's scan and is observed at finalize's task boundaries.
func LoadContext(ctx context.Context, db DB, c *dr.Cluster, hub *Hub, table string, cols []string, policy string, psize int) (*darray.DFrame, *Stats, error) {
	return load(ctx, db, c, hub, hub, table, cols, policy, psize)
}

// load runs one transfer whose export instances push chunks to sink (the
// hub itself in-process, a transfer's TCP sender over sockets).
func load(ctx context.Context, db DB, c *dr.Cluster, hub *Hub, sink ChunkSink, table string, cols []string, policy string, psize int) (*darray.DFrame, *Stats, error) {
	def, err := db.TableDef(table)
	if err != nil {
		return nil, nil, err
	}
	if len(cols) == 0 {
		for _, cs := range def.Schema {
			cols = append(cols, cs.Name)
		}
	}
	schema, err := def.Schema.Project(cols)
	if err != nil {
		return nil, nil, err
	}
	nodes, workers := db.NumNodes(), c.NumWorkers()
	var nparts int
	switch policy {
	case PolicyLocality:
		if nodes != workers {
			return nil, nil, fmt.Errorf("vft: locality policy requires equal node counts (db=%d, dr=%d); use %q", nodes, workers, PolicyUniform)
		}
		nparts = nodes
	case PolicyUniform:
		nparts = workers
	default:
		return nil, nil, fmt.Errorf("vft: unknown policy %q", policy)
	}
	if psize <= 0 {
		// The paper: partition sizes are estimated as table rows divided by
		// the number of receiving R instances, and used as buffering hints.
		psize = 4096
	}
	// NewFrame puts partition i on worker i mod workers, so under the
	// locality policy node i's segment lands on worker i.
	frame, err := darray.NewFrame(c, nparts)
	if err != nil {
		return nil, nil, err
	}
	sessionID := hub.open(frame, schema, policy, sink)
	// Spans and the total use the telemetry clock, so a simulation-driven
	// clock makes the whole load report virtual time.
	clock := telemetry.Default().Clock()
	t0 := clock.Now()
	sp := telemetry.Default().Spans().StartSpan("vft.load",
		telemetry.L("table", table), telemetry.L("policy", policy))
	q := fmt.Sprintf(
		"SELECT %s(%s USING PARAMETERS session='%s', policy='%s', psize=%d, workers=%d) OVER (PARTITION BEST) FROM %s",
		FuncName, strings.Join(cols, ", "), sessionID, policy, psize, workers, table)
	exp := sp.StartChild("vft.export")
	if err := db.ExecContext(ctx, q); err != nil {
		sp.End()
		// Release the staged chunks: without the abort, a failed export
		// leaked the session (and its staging memory) forever.
		hub.Abort(sessionID)
		return nil, nil, fmt.Errorf("vft: export query failed: %w", err)
	}
	exp.End()
	fin := sp.StartChild("vft.finalize")
	stats, err := hub.finalize(ctx, sessionID, c)
	fin.End()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	stats.Total = clock.Now() - t0
	mTransfers(policy).Inc()
	return frame, stats, nil
}
