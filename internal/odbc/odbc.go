// Package odbc implements the baseline connector the paper measures against
// (§1.1, §3): a row-oriented, text-framed protocol where every R instance
// opens its own connection and issues its own SQL query for an ordered row
// range of the table. The three costs the paper attributes to this path are
// all real here:
//
//   - per-row text serialization on the server and parsing on the client
//     (ODBC's string conversion),
//   - a bounded server-side connection pool — hundreds of simultaneous
//     queries queue and "overwhelm the database",
//   - ordered row-range requests that ignore segment locality: a requested
//     range spans many nodes' segments (Fig. 5's problem statement).
package odbc

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/darray"
	"verticadr/internal/dr"
	"verticadr/internal/faults"
	"verticadr/internal/telemetry"
	"verticadr/internal/verr"
)

// Per-row framing costs, the contrast telemetry draws against vft's binary
// columnar counters: serialize covers server-side text rendering, parse the
// client-side conversion back to typed columns.
var (
	mQueries     = telemetry.Default().Counter("odbc_queries_total")
	mRowsSent    = telemetry.Default().Counter("odbc_rows_sent_total")
	mBytesSent   = telemetry.Default().Counter("odbc_bytes_sent_total")
	mSerializeNs = telemetry.Default().Counter("odbc_serialize_nanos_total")
	mParseNs     = telemetry.Default().Counter("odbc_parse_nanos_total")
	mRetries     = telemetry.Default().Counter("odbc_query_retries_total")
)

// queryAttempts caps how many times Load retries one connection's range
// query. Range queries are read-only and idempotent, so a failed attempt
// (a dropped session, an injected fault) is simply reissued.
const queryAttempts = 3

// DB is the database surface the connector uses. internal/vertica.DB
// satisfies it.
type DB interface {
	TableDef(name string) (*catalog.TableDef, error)
	Segments(name string) ([]*colstore.Segment, error)
	NumNodes() int
}

// Server fronts a database with a bounded connection pool, emulating the
// contention of many simultaneous ODBC sessions.
type Server struct {
	db       DB
	sem      chan struct{}
	active   atomic.Int32
	peak     atomic.Int32
	rowsSent atomic.Int64
}

// NewServer wraps db with maxConcurrent query slots (default: 2 per node).
func NewServer(db DB, maxConcurrent int) *Server {
	if maxConcurrent <= 0 {
		maxConcurrent = 2 * db.NumNodes()
	}
	return &Server{db: db, sem: make(chan struct{}, maxConcurrent)}
}

// PeakConcurrency reports the highest number of simultaneously executing
// range queries observed (tests use it to verify queuing happens).
func (s *Server) PeakConcurrency() int { return int(s.peak.Load()) }

// RowsSent reports the total rows served over all connections.
func (s *Server) RowsSent() int64 { return s.rowsSent.Load() }

// queryRangeText serves rows [offset, offset+count) of the table in global
// row order (node 0's segment rows, then node 1's, ...), serialized as
// pipe-separated text lines. The requested range generally spans several
// nodes' segments — the locality destruction of §3.
func (s *Server) queryRangeText(table string, cols []string, offset, count int) (string, error) {
	mQueries.Inc()
	// A fault here models the whole query failing to start (a dropped
	// session); the client's retry loop reissues it.
	if err := faults.Check(faults.SiteODBCQuery); err != nil {
		return "", err
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	n := s.active.Add(1)
	defer s.active.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	def, err := s.db.TableDef(table)
	if err != nil {
		return "", err
	}
	if len(cols) == 0 {
		for _, c := range def.Schema {
			cols = append(cols, c.Name)
		}
	}
	segs, err := s.db.Segments(table)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	skip := offset
	remaining := count
	for _, seg := range segs {
		if remaining <= 0 {
			break
		}
		rows := seg.Rows()
		if skip >= rows {
			skip -= rows
			continue
		}
		// This segment contributes rows [skip, min(rows, skip+remaining)).
		take := rows - skip
		if take > remaining {
			take = remaining
		}
		// A fault here fails the stream mid-flight, after some rows were
		// already rendered — the retry must restart the whole range.
		if err := faults.Check(faults.SiteODBCRow); err != nil {
			return "", err
		}
		batch, err := seg.ReadAll(cols)
		if err != nil {
			return "", err
		}
		sub := batch.Slice(skip, skip+take)
		t0 := telemetry.Default().Now()
		if err := writeText(&sb, sub); err != nil {
			return "", err
		}
		mSerializeNs.AddDuration(telemetry.Default().Now() - t0)
		s.rowsSent.Add(int64(take))
		mRowsSent.Add(int64(take))
		remaining -= take
		skip = 0
	}
	mBytesSent.Add(int64(sb.Len()))
	return sb.String(), nil
}

// writeText renders a batch as the row-at-a-time text frames of the wire
// protocol: fields joined by '|', rows by '\n'.
func writeText(sb *strings.Builder, b *colstore.Batch) error {
	n := b.Len()
	for r := 0; r < n; r++ {
		for ci, col := range b.Cols {
			if ci > 0 {
				sb.WriteByte('|')
			}
			switch col.Type {
			case colstore.TypeInt64:
				sb.WriteString(strconv.FormatInt(col.Ints[r], 10))
			case colstore.TypeFloat64:
				sb.WriteString(strconv.FormatFloat(col.Floats[r], 'g', -1, 64))
			case colstore.TypeString:
				sb.WriteString(escape(col.Strs[r]))
			case colstore.TypeBool:
				if col.Bools[r] {
					sb.WriteByte('t')
				} else {
					sb.WriteByte('f')
				}
			default:
				return fmt.Errorf("odbc: cannot serialize type %v", col.Type)
			}
		}
		sb.WriteByte('\n')
	}
	return nil
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "|", `\p`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func unescape(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				sb.WriteByte('\\')
			case 'p':
				sb.WriteByte('|')
			case 'n':
				sb.WriteByte('\n')
			default:
				sb.WriteByte(s[i+1])
			}
			i++
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

// Conn is one client connection.
type Conn struct{ srv *Server }

// Connect opens a connection against the server.
func Connect(srv *Server) *Conn { return &Conn{srv: srv} }

// QueryRange fetches rows [offset, offset+count) of the table's global row
// order and parses the text frames back into a typed batch — the client-side
// conversion cost of the ODBC path.
func (c *Conn) QueryRange(table string, cols []string, offset, count int) (*colstore.Batch, error) {
	def, err := c.srv.db.TableDef(table)
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		for _, cs := range def.Schema {
			cols = append(cols, cs.Name)
		}
	}
	schema, err := def.Schema.Project(cols)
	if err != nil {
		return nil, err
	}
	text, err := c.srv.queryRangeText(table, cols, offset, count)
	if err != nil {
		return nil, err
	}
	t0 := telemetry.Default().Now()
	b, err := parseText(text, schema)
	mParseNs.AddDuration(telemetry.Default().Now() - t0)
	return b, err
}

func parseText(text string, schema colstore.Schema) (*colstore.Batch, error) {
	out := colstore.NewBatch(schema)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		fields := splitFields(line)
		if len(fields) != len(schema) {
			return nil, fmt.Errorf("odbc: row has %d fields, want %d", len(fields), len(schema))
		}
		vals := make([]any, len(fields))
		for i, f := range fields {
			switch schema[i].Type {
			case colstore.TypeInt64:
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("odbc: bad integer %q: %w", f, err)
				}
				vals[i] = v
			case colstore.TypeFloat64:
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("odbc: bad float %q: %w", f, err)
				}
				vals[i] = v
			case colstore.TypeString:
				vals[i] = unescape(f)
			case colstore.TypeBool:
				vals[i] = f == "t"
			}
		}
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitFields splits on unescaped '|'.
func splitFields(line string) []string {
	var out []string
	var cur strings.Builder
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '\\' && i+1 < len(line):
			cur.WriteByte(line[i])
			cur.WriteByte(line[i+1])
			i++
		case line[i] == '|':
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(line[i])
		}
	}
	out = append(out, cur.String())
	return out
}

// LoadContext is the parallel-ODBC loader the paper benchmarks (Fig. 1, 12,
// 13): connections clients open simultaneous sessions, client i requesting
// the i-th ordered 1/connections slice of the table. Each connection's
// result becomes one partition of a distributed frame, round-robin across
// workers. Cancellation is observed per connection, between reconnect
// attempts — each range query is the unit of work, matching how a real ODBC
// client would abandon a load.
func LoadContext(ctx context.Context, db DB, srv *Server, c *dr.Cluster, table string, cols []string, connections int) (*darray.DFrame, error) {
	if connections <= 0 {
		connections = c.NumWorkers() * c.InstancesPerWorker()
	}
	def, err := db.TableDef(table)
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		for _, cs := range def.Schema {
			cols = append(cols, cs.Name)
		}
	}
	segs, err := db.Segments(table)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range segs {
		total += s.Rows()
	}
	frame, err := darray.NewFrame(c, connections)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, connections)
	for i := 0; i < connections; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := i * total / connections
			hi := (i + 1) * total / connections
			// Reconnect-and-retry, as a real ODBC client does when its
			// session drops: each attempt is a fresh connection reissuing
			// the same idempotent range query.
			var batch *colstore.Batch
			var err error
			for attempt := 0; attempt < queryAttempts; attempt++ {
				if err = verr.Canceled(ctx.Err()); err != nil {
					errs[i] = err
					return
				}
				if attempt > 0 {
					mRetries.Inc()
				}
				conn := Connect(srv)
				if batch, err = conn.QueryRange(table, cols, lo, hi-lo); err == nil {
					break
				}
			}
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = frame.Fill(i, batch)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return frame, nil
}
