package ariesrh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestTortureHasOneDriver is the structural guard for internal/torture:
// the six crash sweeps are values handed to one probe → crash → judge →
// recover loop, and a seventh sweep must be one too.  A private loop
// needs its own crash plan and its own bounded fan-out, so in the
// package's non-test files fault.Plan.CrashAtSync is set in exactly one
// composite literal (and assigned nowhere) and runtime.GOMAXPROCS is
// referenced exactly once.
func TestTortureHasOneDriver(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/torture", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var plans, procs []string
	at := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := x.Key.(*ast.Ident); ok && key.Name == "CrashAtSync" {
						plans = append(plans, at(x))
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "CrashAtSync" {
							t.Errorf("%s: CrashAtSync assigned outside the driver's plan literal", at(x))
						}
					}
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "runtime" && x.Sel.Name == "GOMAXPROCS" {
						procs = append(procs, at(x))
					}
				}
				return true
			})
		}
	}
	if len(plans) != 1 {
		t.Errorf("CrashAtSync is set in %d composite literals, want exactly the driver's: %v", len(plans), plans)
	}
	if len(procs) != 1 {
		t.Errorf("runtime.GOMAXPROCS is referenced %d times, want exactly the driver's fan-out: %v", len(procs), procs)
	}
}
