package verticadr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names a type declares to satisfy a standard
// library interface: the interface's caller names them, not this module.
var interfaceMethods = map[string]bool{
	"Error":  true, // error
	"String": true, // fmt.Stringer
	"Unwrap": true, // errors.Unwrap
	"Len":    true, // sort.Interface, heap.Interface
	"Less":   true,
	"Swap":   true,
	"Push":   true, // heap.Interface
	"Pop":    true,
}

// exportAllowlist names the exported functions and methods that no non-test
// file names but that stay exported, each with its reason: tests in other
// packages need them, or a named ROADMAP item will call them. A key is the
// declaring directory, a dot and the name ("internal/wire.AppendFrame",
// "internal/models.Manager.Redeploy"); a directory alone covers every export
// in it.
var exportAllowlist = map[string]string{
	"internal/sqlexec/difftest": "test-support package: the differential generators and reference databases that sqlexec, plan and cluster tests drive",

	"internal/wire.AppendFrame": "raw frame codec for tests that speak the protocol by hand (root client, server fuzz, cluster router faults)",
	"internal/wire.ReadFrame":   "raw frame codec for tests that speak the protocol by hand (root client, server fuzz, cluster router faults)",
	"internal/wire.WriteFrame":  "raw frame codec for tests that speak the protocol by hand (root client, server fuzz, cluster router faults)",

	"internal/models.Manager.DeployGLMSharded": `ROADMAP "PREDICT over sharded models" deploys through it`,
	"internal/models.Manager.Redeploy":         `ROADMAP Fig. 3 "deploy.model" item; server's redeploy-under-load test calls it`,
	"internal/models.Manager.SetCacheEnabled":  "server's model-load chaos test turns the model cache off",

	"internal/telemetry.Registry.SetClock": "the seeded-schedule seam: telemetry and sqlexec tests run spans on a fake clock",
	"internal/telemetry.ParsePromText":     "server and telemetry tests read /metrics back through it",

	"internal/algos.KmeansModel.Assign": "row-at-a-time reference that models' PREDICT tests hold KmeansPredict to",
	"internal/dfs.DFS.SetNodeDown":      "fault injection: models' replica-failover test takes a DFS node down",
	"internal/vft.Hub.Sessions":         "leak check: faults' and core's chaos tests assert no transfer session outlives its load",
	"internal/workload.GenLogistic":     "the logistic fixture algos' golden and determinism tests fit",
	"internal/wal.Writer.AppendCommit":  "vertica's redo tests write hand-made log records through it",
}

// TestEveryExportHasACaller fails on an exported function or method, declared
// in a non-test file of internal/ or of the root package, that no non-test
// Go file in the module names: cmd/, examples/ and benchmark/ count as
// callers, tests do not. A name only tests reach is deleted, unexported,
// moved to an export_test.go beside the tests of its own package, or
// allowlisted above with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		dir, name string // name is Recv.Method for a method
		pos       token.Position
	}
	var decls []decl
	named := map[string]bool{} // identifiers in non-test code, declared function names aside
	fset := token.NewFileSet()
	err := walkGoFiles(func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declName := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declName[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declName[id] {
				named[id.Name] = true
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir != "." && !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				if interfaceMethods[name] {
					continue
				}
				name = recvName(fn.Recv) + "." + name
			}
			decls = append(decls, decl{dir, name, fset.Position(fn.Name.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 500 {
		t.Fatalf("found only %d exported functions; is the test running at the repository root?", len(decls))
	}
	used := map[string]bool{}
	for _, d := range decls {
		if named[d.name[strings.LastIndex(d.name, ".")+1:]] {
			continue
		}
		key := d.dir + "." + d.name
		switch {
		case exportAllowlist[key] != "":
			used[key] = true
		case exportAllowlist[d.dir] != "":
			used[d.dir] = true
		default:
			t.Errorf("%s: %s has no caller outside tests: delete it, unexport it, move it to an export_test.go, or allowlist it with a reason", d.pos, key)
		}
	}
	var stale []string
	for k, reason := range exportAllowlist {
		if reason == "" || !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("allowlist entry %s names no uncalled export, or gives no reason: drop it", k)
	}
}

// walkGoFiles calls fn with the slash-separated path of every .go file under
// the repository root, skipping dot directories and testdata.
func walkGoFiles(fn func(path string) error) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(filepath.ToSlash(path))
	})
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
