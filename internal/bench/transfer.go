package bench

import (
	"fmt"
	"time"

	"verticadr/internal/simnet"
	"verticadr/internal/telemetry"
)

// SimODBCTransfer simulates loading `gb` logical gigabytes from a dbNodes
// database into `instances` R instances over `connections` parallel ODBC
// sessions (Figs. 1, 12, 13 baseline). Every connection is a pipelined
// producer/consumer pair: the server side materializes row text on the
// database nodes (each node a single-slot resource — the per-row framing
// path does not parallelize inside one node), the client side parses text
// on its R instance. Ordered row ranges span all nodes, so each
// connection's chunks rotate across the database nodes — the locality
// destruction of §3.
func SimODBCTransfer(c Calib, gb float64, dbNodes, connections, instances int) float64 {
	if connections < 1 || instances < 1 || dbNodes < 1 {
		panic("bench: bad ODBC transfer shape")
	}
	s := simnet.New()
	server := make([]*simnet.Resource, dbNodes)
	for i := range server {
		server[i] = s.NewResource(fmt.Sprintf("odbc-node%d", i), 1, c.ODBCServerNodeMBps*1e6)
	}
	clients := make([]*simnet.Resource, instances)
	for i := range clients {
		// One R process parses one stream at a time.
		clients[i] = s.NewResource(fmt.Sprintf("rinst%d", i), 1, c.ODBCClientParseMBps*1e6)
	}
	chunk := 64e6 * c.ODBCTextExpand // 64 MB of rows as text
	perConn := gb * 1e9 * c.ODBCTextExpand / float64(connections)
	for conn := 0; conn < connections; conn++ {
		conn := conn
		q := s.NewQueue()
		nchunks := int(perConn/chunk + 0.999999)
		// Server-side streamer: reads the connection's ordered range, which
		// crosses node boundaries chunk by chunk.
		s.Go(fmt.Sprintf("server-conn%d", conn), func(p *simnet.Proc) {
			// Each connection's ordered-range query costs setup work (range
			// resolution against the segmentation) on every node it spans —
			// 288 simultaneous sessions pay this 288 times per node, the
			// "overwhelm the database" effect.
			for n := 0; n < dbNodes; n++ {
				server[n].Use(p, c.ODBCConnSetupSec*c.ODBCServerNodeMBps*1e6)
			}
			for k := 0; k < nchunks; k++ {
				node := (conn + k) % dbNodes
				server[node].Use(p, chunk)
				q.Put(1)
			}
			q.Close()
		})
		// Client-side parser on the R instance owning this connection.
		s.Go(fmt.Sprintf("client-conn%d", conn), func(p *simnet.Proc) {
			inst := clients[conn%instances]
			for q.Get(p) {
				inst.Use(p, chunk)
			}
		})
	}
	return s.Run()
}

// VFTBreakdown is the result of a simulated fast transfer.
type VFTBreakdown struct {
	Total  float64 // wall-clock seconds
	DBPart float64 // database side: read + decompress + serialize + send
	RPart  float64 // non-overlapped R side: buffer + convert to R objects
}

// SimVFTTransfer simulates Vertica Fast Transfer of `gb` logical gigabytes
// from dbNodes database nodes to the same number of workers with
// rInstancesPerNode R instances each (locality policy, Figs. 12–14). Per
// node the pipeline is: disk (compressed stream) → planner UDF instances
// serializing chunks → 10 Gb NIC → per-instance staging + conversion on the
// worker. The DB part is the completion time of the database side alone;
// the R part is whatever conversion tail extends beyond it (the stacked
// breakdown of Fig. 14).
func SimVFTTransfer(c Calib, gb float64, dbNodes, rInstancesPerNode int) VFTBreakdown {
	bd, _ := simVFT(c, gb, dbNodes, rInstancesPerNode, false)
	return bd
}

func simVFT(c Calib, gb float64, dbNodes, rInstancesPerNode int, record bool) (VFTBreakdown, []telemetry.SpanRecord) {
	if dbNodes < 1 || rInstancesPerNode < 1 {
		panic("bench: bad VFT transfer shape")
	}
	s := simnet.New()
	perNodeBytes := gb * 1e9 / float64(dbNodes)
	chunk := c.VFTChunkMB * 1e6
	nchunks := int(perNodeBytes/chunk + 0.999999)

	// Span log on the simulation clock: Now() is virtual seconds as nanos.
	var root, dbSpan, convSpan *telemetry.Span
	var spans *telemetry.SpanLog
	if record {
		spans = telemetry.NewSpanLog(telemetry.ClockFunc(func() time.Duration {
			return time.Duration(s.Now() * 1e9)
		}))
		root = spans.StartSpan("vft.transfer",
			telemetry.L("policy", "locality"),
			telemetry.L("gb", fmt.Sprintf("%g", gb)))
		dbSpan = root.StartChild("vft.db-side")
		convSpan = root.StartChild("vft.conversion")
	}

	dbDone := s.NewGate(dbNodes * c.VFTUDFInstances)
	var dbFinish float64
	s.Go("db-watch", func(p *simnet.Proc) {
		dbDone.Wait(p)
		dbFinish = p.Now()
		if dbSpan != nil {
			dbSpan.End()
		}
	})
	for n := 0; n < dbNodes; n++ {
		disk := s.NewResource(fmt.Sprintf("disk%d", n), 1, c.VFTDiskMBps*1e6)
		ser := s.NewResource(fmt.Sprintf("dbcpu%d", n), c.VFTUDFInstances, c.VFTSerializeMBps*1e6)
		nic := s.NewResource(fmt.Sprintf("nic%d", n), 1, c.NetGbps/8*1e9)
		conv := s.NewResource(fmt.Sprintf("rcpu%d", n), rInstancesPerNode, c.VFTConvertMBps*1e6)
		q := s.NewQueue()
		closer := s.NewGate(c.VFTUDFInstances)
		s.Go(fmt.Sprintf("q-close%d", n), func(p *simnet.Proc) {
			closer.Wait(p)
			q.Close()
		})
		// Planner-parallel UDF instances share the chunk stream.
		per := nchunks / c.VFTUDFInstances
		extra := nchunks % c.VFTUDFInstances
		for u := 0; u < c.VFTUDFInstances; u++ {
			mine := per
			if u < extra {
				mine++
			}
			s.Go(fmt.Sprintf("export%d-%d", n, u), func(p *simnet.Proc) {
				for k := 0; k < mine; k++ {
					disk.Use(p, chunk*c.VFTCompressRatio)
					ser.Use(p, chunk)
					nic.Use(p, chunk)
					q.Put(1)
				}
				dbDone.Done()
				closer.Done()
			})
		}
		// Receiving R instances stage and convert.
		for r := 0; r < rInstancesPerNode; r++ {
			s.Go(fmt.Sprintf("convert%d-%d", n, r), func(p *simnet.Proc) {
				for q.Get(p) {
					conv.Use(p, chunk)
				}
			})
		}
	}
	total := s.Run()
	rPart := total - dbFinish
	if rPart < 0 {
		rPart = 0
	}
	var recs []telemetry.SpanRecord
	if record {
		convSpan.End()
		root.End()
		recs = spans.Export()
	}
	return VFTBreakdown{Total: total, DBPart: dbFinish, RPart: rPart}, recs
}

// SimSingleRTransfer simulates the classic one-R-process extraction of
// Fig. 1: one connection, one parsing instance.
func SimSingleRTransfer(c Calib, gb float64, dbNodes int) float64 {
	return SimODBCTransfer(c, gb, dbNodes, 1, 1)
}
