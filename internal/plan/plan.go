// Package plan is the cost-based query planner: it lowers a parsed SELECT
// into a tree of physical operators, estimating cardinalities from colstore
// block statistics (zone-map ranges, row counts, NDV from dictionary and RLE
// headers, exact NDV from attached B-tree indexes) and choosing among access
// paths — full segment scan under a conjunction of pushed-down predicates,
// B-tree index scan (O(log n + k) for selective point/range predicates), hash
// join for equi-joins, and a dot-product join for PREDICT over sharded
// models.
//
// The planner never executes anything: internal/sqlexec walks the tree, and
// the tree is the only thing it walks — every SELECT, on the local node and
// on cluster peers, runs the plan Build returns. The split keeps the
// estimate/choose logic testable against fake sources, and EXPLAIN renders
// the tree the executor runs, with estimated rows next to actuals.
package plan

import (
	"fmt"
	"strings"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
	"verticadr/internal/sqlparse"
)

// Source is the planner's read-only view of the database. It is a subset of
// sqlexec.Database, so any Database (including test fakes) is a Source.
type Source interface {
	TableDef(name string) (*catalog.TableDef, error)
	Segments(name string) ([]*colstore.Segment, error)
}

// ShardInfoProvider is implemented by the model manager: it reports whether
// a deployed model is sharded (stored as multiple coefficient blobs). The
// planner uses it to label PREDICT UDTF nodes as dot-product joins. Sources
// exposing extension services advertise it via ServiceSource.
type ShardInfoProvider interface {
	ShardInfo(name string) (shards int, ok bool)
}

// ServiceSource is optionally implemented by Sources that expose extension
// services (the model manager among them) to the planner.
type ServiceSource interface {
	Services() map[string]any
}

// Operator labels. Scan operators resolve a base table; the rest combine or
// shape child outputs.
const (
	OpSeqScan        = "SeqScan"
	OpIndexScan      = "IndexScan"
	OpHashJoin       = "HashJoin"
	OpDotProductJoin = "DotProductJoin"
	OpUDTF           = "UDTF"
	OpAggregate      = "Aggregate"
	OpProject        = "Project"
	OpSort           = "Sort"
	OpLimit          = "Limit"
	OpConst          = "Const"
)

// Access is a table scan's resolved access path. Preds is the conjunction the
// storage layer filters exactly — every zone map prunes blocks, the first
// predicate selects rows, each later one refines the selection — holding
// every column-vs-literal conjunct whose literal compares with its column,
// most selective first. Residual is what storage cannot evaluate, filtered
// over the scanned batches.
type Access struct {
	Preds    []colstore.Pred
	Residual sqlparse.Expr
	// IndexCol non-empty selects the B-tree index scan on that column:
	// Preds[:Probe] is the index probe — one predicate, or a bounded range's
	// lower and upper bound — and the predicates after it refine the rows
	// the probe selects. A segment missing the index (mid-DDL,
	// mid-recovery) scans under all of Preds.
	IndexCol string
	Probe    int
}

// Pushdown renders the predicates storage evaluates beyond an index probe,
// "" when there are none.
func (a *Access) Pushdown() string {
	parts := make([]string, 0, len(a.Preds))
	for _, p := range a.Preds[a.Probe:] {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " AND ")
}

// Node is one physical operator. EstRows is the planner's output-cardinality
// estimate; actual rows are matched up after execution via MatchActuals.
type Node struct {
	ID       int
	Op       string
	Table    string // scan/UDTF nodes: base table
	Alias    string // scan nodes under a join: column-qualifying alias
	Cols     []string
	Access   *Access
	LeftKey  string // hash join: probe-side key column (qualified)
	RightKey string // hash join: build-side key column (qualified)
	Residual sqlparse.Expr
	Runs     bool   // aggregate: run-aware fast path eligible
	Fn       string // UDTF: function name
	Segs     int    // scan nodes: segments the scan fans out over
	Detail   string
	EstRows  int64
	Children []*Node
}

// Plan is a planned statement: the physical operator tree plus the
// normalized SELECT the executor walks it with (deep-copied; column
// references resolved, qualifiers stripped for single-table statements and
// rewritten to "alias.column" for joins).
type Plan struct {
	Root *Node
	Sel  *sqlparse.Select
}

type builder struct {
	src    Source
	nextID int
}

func (b *builder) node(op string) *Node {
	n := &Node{ID: b.nextID, Op: op}
	b.nextID++
	return n
}

// Statement kinds: the pipeline a SELECT's plan roots in. The executor's
// sqlexec_queries_total{kind} label and the cluster router's fan-out choice
// both read the classification from KindOf.
const (
	KindConst      = "const"
	KindJoin       = "join"
	KindUDTF       = "udtf"
	KindAggregate  = "aggregate"
	KindProjection = "projection"
)

// KindOf classifies a SELECT from its syntax alone, in Build's dispatch
// order.
func KindOf(sel *sqlparse.Select) string {
	switch {
	case sel.From == "":
		return KindConst
	case len(sel.Joins) > 0:
		return KindJoin
	case udtfCall(sel) != nil:
		return KindUDTF
	case IsAggregate(sel):
		return KindAggregate
	}
	return KindProjection
}

// Build plans a SELECT. There is no other way to execute one, so every
// error is the user's: an invalid statement, a missing table, or a prepared
// template that was never bound.
func Build(sel *sqlparse.Select, src Source) (*Plan, error) {
	if sel == nil {
		return nil, fmt.Errorf("plan: nil statement")
	}
	if sel.NumParams > 0 {
		return nil, fmt.Errorf("plan: %d unbound placeholder(s) (prepare and execute with arguments)", sel.NumParams)
	}
	sel = cloneSelect(sel)
	b := &builder{src: src}
	switch KindOf(sel) {
	case KindConst:
		if len(sel.Joins) > 0 {
			return nil, fmt.Errorf("plan: JOIN requires a FROM table")
		}
		n := b.node(OpConst)
		n.EstRows = 1
		n.Detail = "table-less SELECT"
		return &Plan{Root: n, Sel: sel}, nil
	case KindJoin:
		return b.buildJoin(sel)
	}
	return b.buildSingle(sel)
}

// udtfCall returns the transform-function call of a UDTF statement: a single
// projection that is a function call with an OVER clause.
func udtfCall(sel *sqlparse.Select) *sqlparse.FuncCall {
	if len(sel.Items) != 1 || sel.Items[0].Star {
		return nil
	}
	fc, ok := sel.Items[0].Expr.(*sqlparse.FuncCall)
	if !ok || fc.Over == nil {
		return nil
	}
	return fc
}

// IsAggregateFunc reports whether name is one of the aggregate functions.
func IsAggregateFunc(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func hasAggregate(e sqlparse.Expr) bool {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		if IsAggregateFunc(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *sqlparse.Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *sqlparse.Unary:
		return hasAggregate(x.X)
	}
	return false
}

// IsAggregate reports whether the statement aggregates: it has a GROUP BY or
// an aggregate call in its projection.
func IsAggregate(sel *sqlparse.Select) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, item := range sel.Items {
		if !item.Star && hasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

func (b *builder) buildSingle(sel *sqlparse.Select) (*Plan, error) {
	def, err := b.src.TableDef(sel.From)
	if err != nil {
		return nil, err
	}
	if err := normalizeSingle(sel); err != nil {
		return nil, err
	}
	ts, err := gatherStats(b.src, sel.From, def)
	if err != nil {
		return nil, err
	}
	if fc := udtfCall(sel); fc != nil {
		return b.buildUDTF(sel, fc, def, ts)
	}
	scan := b.scanNode(sel.From, "", def, ts, sel.Where, false)
	ndv := func(col string) int { return ts.colStats(col).NDV }
	root, err := b.shapeAbove(scan, sel, ndv, sel.Where == nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: root, Sel: sel}, nil
}

// scanNode plans one table's access path from the WHERE conjuncts that
// mention only this table. noIndex forces a sequential scan (the UDTF input
// path streams segments serially and has no gather step).
func (b *builder) scanNode(table, alias string, def *catalog.TableDef, ts *tableStats, where sqlparse.Expr, noIndex bool) *Node {
	conjs := analyzeConjuncts(where, ts)
	acc, estSel := chooseAccess(conjs, ts, noIndex)
	var parts []string
	n := b.node(OpSeqScan)
	if acc.IndexCol != "" {
		n.Op = OpIndexScan
		probe := make([]string, acc.Probe)
		for i, p := range acc.Preds[:acc.Probe] {
			probe[i] = p.String()
		}
		parts = append(parts, fmt.Sprintf("index(%s) %s", acc.IndexCol, strings.Join(probe, " AND ")))
	}
	if pd := acc.Pushdown(); pd != "" {
		parts = append(parts, "pushdown "+pd)
	}
	if acc.Residual != nil {
		parts = append(parts, "filter "+acc.Residual.String())
	}
	n.Detail = strings.Join(parts, ", ")
	n.Table = table
	n.Alias = alias
	n.Access = acc
	n.Segs = len(ts.segs)
	n.EstRows = estimateRows(ts.rows, estSel)
	return n
}

// shapeAbove stacks the non-scan operators (aggregate or project, sort,
// limit) over the input node, mirroring the executor's pipeline order.
// ndv resolves a group-by column name (dotted under a join) to its NDV.
func (b *builder) shapeAbove(in *Node, sel *sqlparse.Select, ndv func(col string) int, runsOK bool) (*Node, error) {
	cur := in
	if IsAggregate(sel) {
		n := b.node(OpAggregate)
		n.Children = []*Node{cur}
		n.EstRows = estimateGroups(sel.GroupBy, ndv, cur.EstRows)
		n.Runs = runsOK && in.Op == OpSeqScan && runsEligible(sel)
		if len(sel.GroupBy) > 0 {
			n.Detail = "GROUP BY " + strings.Join(sel.GroupBy, ", ")
		} else {
			n.Detail = "global"
		}
		if n.Runs {
			n.Detail += ", run-aware"
		}
		cur = n
	} else {
		n := b.node(OpProject)
		n.Children = []*Node{cur}
		n.EstRows = cur.EstRows
		n.Detail = fmt.Sprintf("%d columns", len(sel.Items))
		cur = n
	}
	if len(sel.OrderBy) > 0 {
		n := b.node(OpSort)
		n.Children = []*Node{cur}
		n.EstRows = cur.EstRows
		keys := make([]string, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			keys[i] = o.Col
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		n.Detail = strings.Join(keys, ", ")
		cur = n
	}
	if sel.Limit >= 0 {
		n := b.node(OpLimit)
		n.Children = []*Node{cur}
		n.EstRows = min64(int64(sel.Limit), cur.EstRows)
		n.Detail = fmt.Sprintf("LIMIT %d", sel.Limit)
		cur = n
	}
	return cur, nil
}

// runsEligible decides the run-aware aggregation path (beyond "no WHERE",
// which the caller checks): every aggregate argument is a bare column, and
// star only under COUNT. The executor takes the path exactly when the
// Aggregate node says Runs.
func runsEligible(sel *sqlparse.Select) bool {
	for _, item := range sel.Items {
		if item.Star {
			return false
		}
		fc, ok := item.Expr.(*sqlparse.FuncCall)
		if !ok {
			continue
		}
		if !IsAggregateFunc(fc.Name) {
			return false
		}
		if fc.Star {
			if fc.Name != "COUNT" {
				return false
			}
			continue
		}
		if len(fc.Args) != 1 {
			return false
		}
		if _, ok := fc.Args[0].(*sqlparse.ColRef); !ok {
			return false
		}
	}
	return true
}

func (b *builder) buildUDTF(sel *sqlparse.Select, fc *sqlparse.FuncCall, def *catalog.TableDef, ts *tableStats) (*Plan, error) {
	if len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("plan: UDTF queries do not support GROUP BY")
	}
	scan := b.scanNode(sel.From, "", def, ts, sel.Where, true)
	n := b.node(OpUDTF)
	n.Fn = fc.Name
	n.Table = sel.From
	n.Children = []*Node{scan}
	n.EstRows = scan.EstRows
	n.Detail = fc.Name
	// PREDICT over a sharded model executes as a dot-product join: feature
	// batches join against model-coefficient shards, shard-major.
	if shards, ok := b.modelShards(fc); ok {
		n.Op = OpDotProductJoin
		n.Detail = fmt.Sprintf("%s, model sharded %d ways", fc.Name, shards)
	}
	cur := n
	if len(sel.OrderBy) > 0 {
		s := b.node(OpSort)
		s.Children = []*Node{cur}
		s.EstRows = cur.EstRows
		cur = s
	}
	if sel.Limit >= 0 {
		l := b.node(OpLimit)
		l.Children = []*Node{cur}
		l.EstRows = min64(int64(sel.Limit), cur.EstRows)
		l.Detail = fmt.Sprintf("LIMIT %d", sel.Limit)
		cur = l
	}
	return &Plan{Root: cur, Sel: sel}, nil
}

// modelShards resolves the UDTF's model parameter against the model manager
// (when the source exposes one) and reports the shard count of a sharded
// model deployment.
func (b *builder) modelShards(fc *sqlparse.FuncCall) (int, bool) {
	mexpr, ok := fc.Params["model"]
	if !ok {
		return 0, false
	}
	lit, ok := mexpr.(*sqlparse.StringLit)
	if !ok {
		return 0, false
	}
	sv, ok := b.src.(ServiceSource)
	if !ok {
		return 0, false
	}
	for _, svc := range sv.Services() {
		if p, ok := svc.(ShardInfoProvider); ok {
			if shards, ok := p.ShardInfo(lit.Val); ok {
				return shards, true
			}
		}
	}
	return 0, false
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
