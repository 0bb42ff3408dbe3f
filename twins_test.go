package verticadr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					recv = id.Name
				}
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
