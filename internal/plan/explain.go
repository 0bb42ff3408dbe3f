package plan

import (
	"encoding/json"
	"fmt"
	"strings"
)

// EXPLAIN rendering. Both forms show estimated rows next to actual rows
// (when the statement executed); the JSON form deliberately excludes
// timings and byte counts so its output is stable enough to pin in golden
// tests.

// OpStat is one executed operator's measurement (profile label, output
// rows), in completion order.
type OpStat struct {
	Op   string
	Rows int64
}

// ProfOp returns the profile label the executor emits for this plan
// operator's stage.
func ProfOp(op string) string {
	switch op {
	case OpSeqScan, OpIndexScan:
		return "scan"
	case OpHashJoin:
		return "join"
	case OpDotProductJoin, OpUDTF:
		return "udtf"
	case OpAggregate:
		return "aggregate"
	case OpProject:
		return "project"
	case OpSort:
		return "sort"
	case OpLimit:
		return "limit"
	case OpConst:
		return "const"
	}
	return strings.ToLower(op)
}

func (p *Plan) postorder() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		out = append(out, n)
	}
	walk(p.Root)
	return out
}

// MatchActuals aligns executed operator measurements with plan nodes: nodes
// execute in post-order and each stage emits one profile entry, so a single
// forward sweep matching profile labels recovers each node's actual row
// count. A scan or join with a residual also owns the "filter" entry right
// after its own. Stages the executor elides at run time (a LIMIT above fewer
// rows than its bound) inherit their child's actual — rows passed through
// unchanged. Returns node ID → actual rows, plus the entries no node
// accounts for: empty whenever the executor ran this tree and nothing else.
func (p *Plan) MatchActuals(ops []OpStat) (actuals map[int]int64, unmatched []OpStat) {
	actuals = map[int]int64{}
	oi := 0
	for _, n := range p.postorder() {
		want := ProfOp(n.Op)
		found := false
		for j := oi; j < len(ops); j++ {
			if ops[j].Op != want {
				continue
			}
			actuals[n.ID] = ops[j].Rows
			unmatched = append(unmatched, ops[oi:j]...)
			oi = j + 1
			found = true
			break
		}
		if found {
			residual := n.Residual != nil || (n.Access != nil && n.Access.Residual != nil)
			if residual && oi < len(ops) && ops[oi].Op == "filter" {
				oi++
			}
		} else if len(n.Children) > 0 {
			if v, ok := actuals[n.Children[len(n.Children)-1].ID]; ok {
				actuals[n.ID] = v
			}
		}
	}
	return actuals, append(unmatched, ops[oi:]...)
}

func nodeLabel(n *Node) string {
	s := n.Op
	if n.Table != "" {
		s += " on " + n.Table
		if n.Alias != "" && n.Alias != n.Table {
			s += " AS " + n.Alias
		}
	}
	if n.Detail != "" {
		s += " [" + n.Detail + "]"
	}
	// Scans over a segmented table fan out one worker per segment — the
	// same shape a cluster router fans out per shard. Single-segment scans
	// stay unannotated (and golden-stable).
	if n.Segs > 1 {
		s += fmt.Sprintf(" {fan-out %d segments}", n.Segs)
	}
	return s
}

// Text renders the plan tree as indented lines, one per operator.
func (p *Plan) Text(actuals map[int]int64) []string {
	var lines []string
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		line := strings.Repeat("  ", depth)
		if depth > 0 {
			line += "-> "
		}
		line += nodeLabel(n) + fmt.Sprintf(" (est=%d", n.EstRows)
		if a, ok := actuals[n.ID]; ok {
			line += fmt.Sprintf(" actual=%d", a)
		}
		line += ")"
		lines = append(lines, line)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return lines
}

type jsonNode struct {
	Op         string      `json:"op"`
	Table      string      `json:"table,omitempty"`
	Alias      string      `json:"alias,omitempty"`
	Index      string      `json:"index,omitempty"`
	Detail     string      `json:"detail,omitempty"`
	Segments   int         `json:"segments,omitempty"` // scan fan-out width when segmented (> 1)
	EstRows    int64       `json:"est_rows"`
	ActualRows *int64      `json:"actual_rows,omitempty"`
	Children   []*jsonNode `json:"children,omitempty"`
}

func toJSONNode(n *Node, actuals map[int]int64) *jsonNode {
	j := &jsonNode{
		Op:      n.Op,
		Table:   n.Table,
		Detail:  n.Detail,
		EstRows: n.EstRows,
	}
	if n.Alias != "" && n.Alias != n.Table {
		j.Alias = n.Alias
	}
	if n.Segs > 1 {
		j.Segments = n.Segs
	}
	if n.Access != nil {
		j.Index = n.Access.IndexCol
	}
	if a, ok := actuals[n.ID]; ok {
		v := a
		j.ActualRows = &v
	}
	for _, c := range n.Children {
		j.Children = append(j.Children, toJSONNode(c, actuals))
	}
	return j
}

// JSON renders the plan as a stable JSON document (EXPLAIN (FORMAT JSON)).
func (p *Plan) JSON(actuals map[int]int64) ([]byte, error) {
	return json.MarshalIndent(toJSONNode(p.Root, actuals), "", "  ")
}
