package spec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlySpecBuildsProblems guards the package's claim to be the only
// problem builder: no non-test file of module repro outside
// internal/spec calls kernels.NewProblem or miniapps.NewProblem. A
// problem built anywhere else skips the spec's checks, and in the
// experiments it would also skip the remote worker pool. Nested modules
// (bench/) and testdata trees are not part of module repro and are
// skipped.
func TestOnlySpecBuildsProblems(t *testing.T) {
	root := filepath.Join("..", "..")
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module repro\n") {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	builders := map[string]bool{"repro/internal/kernels": true, "repro/internal/miniapps": true}
	self := filepath.Join(root, "internal", "spec")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || hasGoMod(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == self {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		// The local names this file imports a problem-building package under.
		local := map[string]bool{}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if !builders[ipath] {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewProblem" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && local[pkg.Name] {
				t.Errorf("%s: %s.NewProblem builds a problem outside internal/spec; use spec.Spec.Resolve, Base or BaseFor",
					fset.Position(call.Pos()), pkg.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d non-test files; the walk missed the module", files)
	}
}

// hasGoMod reports whether dir is the root of its own module.
func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
