package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if p.cur().Kind != TokEOF {
		return nil, p.errf("trailing input starting at %q", p.cur().Text)
	}
	if sel, ok := stmt.(*Select); ok {
		sel.NumParams = p.params
	} else if p.params > 0 {
		return nil, fmt.Errorf("sqlparse: ? placeholders are only supported in SELECT")
	}
	return stmt, nil
}

// ParseSelect parses a statement that must be a SELECT: what a prepared
// statement's text is.
func ParseSelect(input string) (*Select, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sqlparse: expected a SELECT, got %T", stmt)
	}
	return sel, nil
}

type parser struct {
	toks   []Token
	pos    int
	params int // `?` placeholders seen so far, in textual order
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: at offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// accept consumes the token if it matches; reports whether it did.
func (p *parser) accept(kind TokKind, text string) bool {
	t := p.cur()
	if t.Kind == kind && (text == "" || t.Text == text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token or fails.
func (p *parser) expect(kind TokKind, text string) (Token, error) {
	t := p.cur()
	if t.Kind == kind && (text == "" || t.Text == text) {
		p.pos++
		return t, nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errf("expected %s, found %q", want, t.Text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected statement keyword, found %q", t.Text)
	}
	switch t.Text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		return p.parseExplain()
	case "PROFILE":
		p.next()
		if p.cur().Kind != TokKeyword || p.cur().Text != "SELECT" {
			return nil, p.errf("PROFILE must be followed by SELECT, found %q", p.cur().Text)
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.(*Select).Profile = true
		return sel, nil
	default:
		return nil, p.errf("unsupported statement %q", t.Text)
	}
}

func (p *parser) parseIdent() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errf("expected identifier, found %q", t.Text)
}

// parseExplain parses EXPLAIN [(FORMAT JSON)] SELECT ... . JSON is matched
// case-insensitively as a plain identifier (it is not a reserved word).
func (p *parser) parseExplain() (Statement, error) {
	p.next() // EXPLAIN
	ex := &Explain{}
	if p.accept(TokSymbol, "(") {
		if _, err := p.expect(TokKeyword, "FORMAT"); err != nil {
			return nil, err
		}
		t := p.cur()
		if t.Kind != TokIdent || !strings.EqualFold(t.Text, "JSON") {
			return nil, p.errf("expected JSON after FORMAT, found %q", t.Text)
		}
		p.pos++
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		ex.FormatJSON = true
	}
	if p.cur().Kind != TokKeyword || p.cur().Text != "SELECT" {
		return nil, p.errf("EXPLAIN must be followed by SELECT, found %q", p.cur().Text)
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	ex.Stmt = stmt.(*Select)
	return ex, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if p.accept(TokKeyword, "INDEX") {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Column: col}, nil
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColDef
	for {
		cn, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		tt := p.cur()
		if tt.Kind != TokIdent && tt.Kind != TokKeyword {
			return nil, p.errf("expected type for column %q, found %q", cn, tt.Text)
		}
		p.pos++
		cols = append(cols, ColDef{Name: cn, Type: strings.ToUpper(tt.Text)})
		if p.accept(TokSymbol, ",") {
			continue
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	ct := &CreateTable{Name: name, Cols: cols}
	if p.accept(TokKeyword, "SEGMENTED") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		if p.accept(TokKeyword, "HASH") {
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			ct.Seg = &SegClause{Hash: true, Column: col}
		} else if p.accept(TokKeyword, "ROUND") {
			if _, err := p.expect(TokKeyword, "ROBIN"); err != nil {
				return nil, err
			}
			ct.Seg = &SegClause{}
		} else {
			return nil, p.errf("expected HASH or ROUND ROBIN after SEGMENTED BY")
		}
	}
	return ct, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if p.accept(TokKeyword, "INDEX") {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name}, nil
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept(TokSymbol, "(") {
		for {
			c, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if p.accept(TokSymbol, ",") {
				continue
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(TokSymbol, ",") {
				continue
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "FROM") {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		sel.From = name
		if alias, ok := p.acceptAlias(); ok {
			sel.FromAlias = alias
		}
		for p.accept(TokKeyword, "JOIN") {
			jt, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			j := Join{Table: jt}
			if alias, ok := p.acceptAlias(); ok {
				j.Alias = alias
			}
			if _, err := p.expect(TokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
			sel.Joins = append(sel.Joins, j)
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColName()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColName()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// acceptAlias consumes an optional table alias: AS ident, or a bare ident
// (keywords such as JOIN / WHERE never alias, so the clause grammar stays
// unambiguous). AS with no identifier is left for the caller's next expect
// to report.
func (p *parser) acceptAlias() (string, bool) {
	if p.cur().Kind == TokKeyword && p.cur().Text == "AS" &&
		p.toks[p.pos+1].Kind == TokIdent {
		p.pos += 2
		return p.toks[p.pos-1].Text, true
	}
	if p.cur().Kind == TokIdent {
		return p.next().Text, true
	}
	return "", false
}

// parseColName parses a possibly-qualified column name for GROUP BY / ORDER
// BY, returning the dotted form ("t.c") for qualified references. A quoted
// identifier containing a dot denotes the same dotted name.
func (p *parser) parseColName() (string, error) {
	c, err := p.parseIdent()
	if err != nil {
		return "", err
	}
	if p.accept(TokSymbol, ".") {
		c2, err := p.parseIdent()
		if err != nil {
			return "", err
		}
		return c + "." + c2, nil
	}
	return c, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		a, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// Expression grammar (loosest to tightest): OR, AND, NOT, comparison,
// additive, multiplicative, unary minus, primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept(TokSymbol, "+") {
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		} else if p.accept(TokSymbol, "-") {
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept(TokSymbol, "*") {
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		} else if p.accept(TokSymbol, "/") {
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		if !strings.ContainsAny(t.Text, ".eE") {
			n, err := strconv.ParseInt(t.Text, 10, 64)
			if err == nil {
				return &NumberLit{IsInt: true, Int: n}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &NumberLit{Float: f}, nil
	case t.Kind == TokString:
		p.pos++
		return &StringLit{Val: t.Text}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.pos++
		return &BoolLit{Val: true}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.pos++
		return &BoolLit{Val: false}, nil
	case t.Kind == TokSymbol && t.Text == "?":
		p.pos++
		ph := &Placeholder{Idx: p.params}
		p.params++
		return ph, nil
	case t.Kind == TokSymbol && t.Text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.pos++
		if p.cur().Kind == TokSymbol && p.cur().Text == "(" {
			return p.parseFuncCall(t.Text)
		}
		if p.cur().Kind == TokSymbol && p.cur().Text == "." {
			p.pos++
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.Text, Name: name}, nil
		}
		return &ColRef{Name: t.Text}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", t.Text)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	p.next() // (
	fc := &FuncCall{Name: strings.ToUpper(name)}
	if p.accept(TokSymbol, "*") {
		fc.Star = true
	} else if !(p.cur().Kind == TokSymbol && p.cur().Text == ")") &&
		!(p.cur().Kind == TokKeyword && p.cur().Text == "USING") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "USING") {
		if _, err := p.expect(TokKeyword, "PARAMETERS"); err != nil {
			return nil, err
		}
		fc.Params = map[string]Expr{}
		for {
			k, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, "="); err != nil {
				return nil, err
			}
			k = strings.ToLower(k)
			if _, dup := fc.Params[k]; dup {
				return nil, p.errf("USING PARAMETERS names %q twice", k)
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Params[k] = v
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(TokKeyword, "OVER") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		ov := &Over{}
		if p.accept(TokKeyword, "PARTITION") {
			if p.accept(TokKeyword, "BEST") {
				ov.PartitionBest = true
			} else if p.accept(TokKeyword, "BY") {
				for {
					c, err := p.parseIdent()
					if err != nil {
						return nil, err
					}
					ov.PartitionBy = append(ov.PartitionBy, c)
					if !p.accept(TokSymbol, ",") {
						break
					}
				}
			} else {
				return nil, p.errf("expected BEST or BY after PARTITION")
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		fc.Over = ov
	}
	return fc, nil
}
