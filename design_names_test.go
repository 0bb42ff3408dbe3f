package verticadr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designOutsideNames are names from outside the module that DESIGN.md cites
// unqualified: runtime and system functions that profiles show, and
// Distributed R's own functions as the paper names them. Go's predeclared
// identifiers and names qualified by a standard-library package the module
// imports (`sync.Pool`) need no entry.
var designOutsideNames = map[string]bool{
	"memmove":       true,
	"memclr":        true,
	"growslice":     true,
	"convT64":       true,
	"findRunnable":  true,
	"writev":        true,
	"foreach":       true,
	"partitionsize": true,
	"cv.hpdglm":     true,
}

// goneWords mark a sentence that says the name it cites no longer exists.
var goneWords = regexp.MustCompile(`(?i)\b(gone|deleted|removed|retired|no longer)\b`)

// goIdent matches a backticked span that reads as a Go name: an identifier,
// or a dotted path of them, each part optionally called with no arguments
// (`plan.Build`, `Hub.Send`, `telemetry.Default()`).
var goIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\(\))?(\.[A-Za-z_][A-Za-z0-9_]*(\(\))?)*$`)

// fileName matches a span that names a file rather than Go code.
var fileName = regexp.MustCompile(`\.(go|md|json|sh|txt|mod)$`)

// TestDesignNamesExist holds DESIGN.md to the code: every backticked Go name
// it cites must be declared somewhere in the module (a package, type,
// function, method, field, constant, variable or parameter), be a string
// literal in non-test code (span, fault-site and plan-node names), be a
// name from outside the module on designOutsideNames, or sit in a sentence
// that says the name is gone.
func TestDesignNamesExist(t *testing.T) {
	declared, literals, stdPkgs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := walkGoFiles(func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		declared[f.Name.Name] = true
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p, "verticadr") {
				stdPkgs[p[strings.LastIndex(p, "/")+1:]] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name.Name] = true
			case *ast.TypeSpec:
				declared[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, e := range n.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							declared[id.Name] = true
						}
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							declared[id.Name] = true
						}
					}
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && !test {
					if s, err := strconv.Unquote(n.Value); err == nil {
						literals[s] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 1000 {
		t.Fatalf("found only %d declared names; is the test running at the repository root?", len(declared))
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(span string) bool {
		if literals[span] || designOutsideNames[span] || fileName.MatchString(span) {
			return true
		}
		// A series name a prefix and a suffix literal spell ("vft" + "_conns").
		for i := 1; i < len(span); i++ {
			if span[i] == '_' && literals[span[:i]] && literals[span[i:]] {
				return true
			}
		}
		parts := strings.Split(span, ".")
		if len(parts) > 1 && stdPkgs[parts[0]] {
			return true
		}
		for _, part := range parts {
			part = strings.TrimSuffix(part, "()")
			if !declared[part] && types.Universe.Lookup(part) == nil {
				return false
			}
		}
		return true
	}
	for _, para := range designParagraphs(string(doc)) {
		for _, sentence := range splitSentences(para.text) {
			for _, span := range backticked(sentence) {
				if !goIdent.MatchString(span) || resolves(span) {
					continue
				}
				if goneWords.MatchString(sentence) {
					continue
				}
				t.Errorf("DESIGN.md:%d: `%s` names nothing in the code: fix the name, or say in its sentence that it is gone", para.line, span)
			}
		}
	}
}

type designParagraph struct {
	line int // first line, 1-based
	text string
}

// designParagraphs splits a Markdown document at blank lines and list items,
// leaving out fenced code blocks.
func designParagraphs(doc string) []designParagraph {
	var out []designParagraph
	var cur []string
	start, fenced := 0, false
	flush := func() {
		if len(cur) > 0 {
			out = append(out, designParagraph{start, strings.Join(cur, " ")})
		}
		cur = nil
	}
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			flush()
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "- ") || strings.HasPrefix(trimmed, "* ") || strings.HasPrefix(trimmed, "#") {
			flush()
		}
		if trimmed != "" {
			if len(cur) == 0 {
				start = i + 1
			}
			cur = append(cur, trimmed)
		}
	}
	flush()
	return out
}

// splitSentences cuts text after each '.', '!' or '?' that a space follows,
// outside backticks.
func splitSentences(text string) []string {
	var out []string
	inTick, from := false, 0
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c == '`':
			inTick = !inTick
		case !inTick && (c == '.' || c == '!' || c == '?') && i+1 < len(text) && text[i+1] == ' ':
			out = append(out, text[from:i+1])
			from = i + 2
		}
	}
	return append(out, text[from:])
}

// backticked returns the text of every single-backtick span in s.
func backticked(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '`')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(s[i+1:], '`')
		if j < 0 {
			return out
		}
		out = append(out, s[i+1:i+1+j])
		s = s[i+j+2:]
	}
}
