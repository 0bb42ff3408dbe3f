package sqlparse

import (
	"fmt"
	"slices"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// ColDef is one column in a CREATE TABLE.
type ColDef struct {
	Name string
	Type string // raw SQL type name, resolved by the executor
}

// SegClause is the optional SEGMENTED BY clause.
type SegClause struct {
	Hash   bool   // true: HASH(Column); false: ROUND ROBIN
	Column string // set when Hash
}

// CreateTable is CREATE TABLE name (cols...) [SEGMENTED BY ...].
type CreateTable struct {
	Name string
	Cols []ColDef
	Seg  *SegClause
}

func (*CreateTable) stmtNode() {}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmtNode() {}

// CreateIndex is CREATE INDEX name ON table (column): a secondary B-tree
// index over one column of one table.
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndex) stmtNode() {}

// DropIndex is DROP INDEX name.
type DropIndex struct{ Name string }

func (*DropIndex) stmtNode() {}

// Explain is EXPLAIN [(FORMAT JSON)] SELECT ...: the executor plans (and
// runs) the inner statement and returns the physical plan — one row per
// rendered line in text mode, a single JSON document in JSON mode — instead
// of the query's rows.
type Explain struct {
	FormatJSON bool
	Stmt       *Select
}

func (*Explain) stmtNode() {}

// Insert is INSERT INTO name [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // nil means table order
	Rows    [][]Expr
}

func (*Insert) stmtNode() {}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// SelectItem is one projection: either * or an expression with optional alias.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// Join is one JOIN clause: an inner equi-join against another table.
type Join struct {
	Table string
	Alias string // "" when the table name itself qualifies columns
	On    Expr
}

// Select is a SELECT statement over at most one base table plus any number
// of inner joins.
type Select struct {
	Items     []SelectItem
	From      string // empty for table-less SELECT (e.g. SELECT 1+1)
	FromAlias string // optional alias for the base table
	Joins     []Join
	Where     Expr
	GroupBy   []string
	OrderBy   []OrderItem
	Limit     int // -1 when absent
	// Profile marks a PROFILE SELECT ...: the executor collects per-operator
	// row counts and timings and attaches them to the result.
	Profile bool
	// NumParams is the number of `?` placeholders the statement contains, in
	// textual order. Zero for ordinary statements; BindSelect requires
	// exactly this many arguments.
	NumParams int
}

func (*Select) stmtNode() {}

// Expr is any expression node.
type Expr interface {
	exprNode()
	String() string
}

// quoteIdent renders an identifier so the lexer reads back exactly the same
// name: plain ASCII identifiers (letter/underscore start, letter/digit/_/$
// rest) that don't collide with a keyword pass through bare; anything else —
// including non-ASCII names, which the byte-oriented lexer cannot re-lex
// bare — is double-quoted. Names containing '"' cannot be represented (the
// lexer has no escape inside quoted identifiers) and only arise from
// hand-built ASTs.
func quoteIdent(name string) string {
	plain := name != ""
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		digit := c >= '0' && c <= '9'
		if i == 0 && !alpha || i > 0 && !(alpha || digit || c == '$') {
			plain = false
			break
		}
	}
	if plain && keywords[strings.ToUpper(name)] {
		plain = false
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// ColRef references a column by name, optionally qualified by a table name
// or alias (Table is "" when unqualified).
type ColRef struct {
	Table string
	Name  string
}

func (*ColRef) exprNode() {}

// String returns the (possibly qualified) column name, quoted when necessary.
func (c *ColRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// NumberLit is a numeric literal; IsInt distinguishes INTEGER from FLOAT.
type NumberLit struct {
	IsInt bool
	Int   int64
	Float float64
}

func (*NumberLit) exprNode() {}

// String formats the literal.
func (n *NumberLit) String() string {
	if n.IsInt {
		return fmt.Sprintf("%d", n.Int)
	}
	return fmt.Sprintf("%g", n.Float)
}

// StringLit is a string literal.
type StringLit struct{ Val string }

func (*StringLit) exprNode() {}

// String formats the literal with SQL quoting.
func (s *StringLit) String() string { return "'" + strings.ReplaceAll(s.Val, "'", "''") + "'" }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

func (*BoolLit) exprNode() {}

// String formats the literal.
func (b *BoolLit) String() string {
	if b.Val {
		return "TRUE"
	}
	return "FALSE"
}

// Placeholder is a `?` parameter marker in a prepared statement. Idx is the
// 0-based ordinal position among the statement's placeholders; BindSelect
// substitutes the Idx-th argument for it at execution time. A Select still
// containing placeholders cannot be executed — the evaluator rejects them.
type Placeholder struct{ Idx int }

func (*Placeholder) exprNode() {}

// String renders the marker. All placeholders render identically, which is
// what makes a statement's canonical String() a position-independent plan
// cache key.
func (*Placeholder) String() string { return "?" }

// Binary is a binary operation; Op is one of + - * / = <> < <= > >= AND OR.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) exprNode() {}

// String parenthesizes fully.
func (b *Binary) String() string { return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")" }

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*Unary) exprNode() {}

// String parenthesizes.
func (u *Unary) String() string { return "(" + u.Op + " " + u.X.String() + ")" }

// Over is the OVER clause on an analytic / transform function call.
type Over struct {
	PartitionBest bool
	PartitionBy   []string
}

// FuncCall is a function invocation: aggregate (SUM, COUNT...), scalar, or a
// UDTF when Over is present. Params carries the Vertica-style
// USING PARAMETERS key-value list.
type FuncCall struct {
	Name   string // upper-cased
	Star   bool   // COUNT(*)
	Args   []Expr
	Params map[string]Expr // USING PARAMETERS
	Over   *Over
}

func (*FuncCall) exprNode() {}

// AppendParamKeys appends the USING PARAMETERS keys to dst in sorted order,
// the order String renders them in and every walk visits them, so that what
// a walk reports first does not depend on map order. A caller that passes a
// slice of a local array keeps the walk free of allocation.
func (f *FuncCall) AppendParamKeys(dst []string) []string {
	n := len(dst)
	for k := range f.Params {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// String formats the call so it re-parses to the same statement: parameters
// render as the full USING PARAMETERS list in sorted key order.
func (f *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(quoteIdent(f.Name))
	sb.WriteByte('(')
	if f.Star {
		sb.WriteByte('*')
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	if len(f.Params) > 0 {
		if f.Star || len(f.Args) > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString("USING PARAMETERS ")
		for i, k := range f.AppendParamKeys(nil) {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(k))
			sb.WriteByte('=')
			sb.WriteString(f.Params[k].String())
		}
	}
	sb.WriteByte(')')
	if f.Over != nil {
		if f.Over.PartitionBest {
			sb.WriteString(" OVER (PARTITION BEST)")
		} else if len(f.Over.PartitionBy) > 0 {
			cols := make([]string, len(f.Over.PartitionBy))
			for i, c := range f.Over.PartitionBy {
				cols[i] = quoteIdent(c)
			}
			sb.WriteString(" OVER (PARTITION BY " + strings.Join(cols, ", ") + ")")
		} else {
			sb.WriteString(" OVER ()")
		}
	}
	return sb.String()
}

// String renders the statement as SQL that parses back to an equivalent
// Select: expressions are fully parenthesized, aliases always use AS, and
// identifiers are quoted when they would otherwise lex as keywords or fail to
// lex at all. Parse(sel.String()) succeeds for any parsed sel, and the
// rendering is a fixpoint: Parse(s).String() == s for s = sel.String().
func (sel *Select) String() string {
	var sb strings.Builder
	if sel.Profile {
		sb.WriteString("PROFILE ")
	}
	sb.WriteString("SELECT ")
	for i, item := range sel.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if item.Star {
			sb.WriteByte('*')
			continue
		}
		sb.WriteString(item.Expr.String())
		if item.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(quoteIdent(item.Alias))
		}
	}
	if sel.From != "" {
		sb.WriteString(" FROM ")
		sb.WriteString(quoteIdent(sel.From))
		if sel.FromAlias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(quoteIdent(sel.FromAlias))
		}
		for _, j := range sel.Joins {
			sb.WriteString(" JOIN ")
			sb.WriteString(quoteIdent(j.Table))
			if j.Alias != "" {
				sb.WriteString(" AS ")
				sb.WriteString(quoteIdent(j.Alias))
			}
			sb.WriteString(" ON ")
			sb.WriteString(j.On.String())
		}
	}
	if sel.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(sel.Where.String())
	}
	if len(sel.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range sel.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(g))
		}
	}
	if len(sel.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range sel.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(o.Col))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if sel.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", sel.Limit)
	}
	return sb.String()
}
