package verticadr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoContextTwins keeps every entry point at one spelling: no package may
// declare both X and XContext (or XCtx) on the same receiver. The
// context-first form is the only form; a context-less wrapper that hides a
// context.Background() must not come back.
func TestNoContextTwins(t *testing.T) {
	type key struct{ dir, recv, name string }
	declared := map[key]token.Position{}
	fset := token.NewFileSet()
	err := walkGoFiles(func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			recv := ""
			if fn.Recv != nil {
				recv = recvName(fn.Recv)
			}
			declared[key{filepath.Dir(path), recv, fn.Name.Name}] = fset.Position(fn.Pos())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 1000 {
		t.Fatalf("walked only %d function declarations; is the test running at the repository root?", len(declared))
	}
	for k, pos := range declared {
		for _, suffix := range []string{"Context", "Ctx"} {
			base, ok := strings.CutSuffix(k.name, suffix)
			if !ok || base == "" {
				continue
			}
			if twin, ok := declared[key{k.dir, k.recv, base}]; ok {
				t.Errorf("%s declares %s beside its context-less twin %s (%s): keep the context-first form only", pos, k.name, base, twin)
			}
		}
	}
}

// poolAllowlist names the sync.Pools internal/ may still hold, each with the
// ROADMAP item that retires it (and, where one was measured, the cost that
// keeps it). A sync.Pool empties at every collection, so
// what a statement allocates through one depends on when the collector last
// ran; scratch belongs to the code that uses it.
var poolAllowlist = map[string]string{
	"sqlexec.aggScratchPool": "order-independent sums: its second PR changes what the aggregate's scratch holds, then a range task owns it",
	"algos.irlsScratchPool":  "column-major partitions end to end: the IRLS transpose it holds goes, and what is left a fit owns",
	"wire.bufPool":           "scratch owned by its caller: a connection owns its read buffer",
}

// TestNoPoolsOutsideAllowlist fails on a sync.Pool in a non-test file of
// internal/ that poolAllowlist does not name, and on an allowlist entry that
// names no pool.
func TestNoPoolsOutsideAllowlist(t *testing.T) {
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := walkGoFiles(func(path string) error {
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if !usesPool(d) {
				continue
			}
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				t.Errorf("%s: a sync.Pool outside a package variable", fset.Position(d.Pos()))
				continue
			}
			for _, spec := range gd.Specs {
				if vs := spec.(*ast.ValueSpec); usesPool(vs) {
					name := f.Name.Name + "." + vs.Names[0].Name
					found[name] = true
					if poolAllowlist[name] == "" {
						t.Errorf("%s: %s is a sync.Pool: give its scratch to the code that uses it", fset.Position(vs.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range poolAllowlist {
		if !found[name] {
			t.Errorf("allowlist entry %s names no sync.Pool: drop it", name)
		}
	}
}

// usesPool reports whether n mentions sync.Pool.
func usesPool(n ast.Node) (found bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}
