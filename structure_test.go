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
// the seven crash sweeps are values handed to one probe → crash → judge →
// recover loop, and an eighth sweep must be one too.  A private loop
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

// TestBeginAndEndAreNotLogged is the structural guard for the two ends
// of a transaction's chain.  Its first record is its first update,
// increment, delegation or prepare, and one that never logged commits
// and aborts without I/O; its last record is its commit or abort record.
// No non-test file of the engine or of its ARIES baseline may build a
// wal.Record with Type wal.TypeBegin or wal.TypeEnd, so neither record
// can come back unnoticed.  (Recovery still reads both types: older logs
// open each chain with a begin record and close it with an end record.)
func TestBeginAndEndAreNotLogged(t *testing.T) {
	for _, dir := range []string{"internal/core", "internal/aries"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					kv, ok := n.(*ast.KeyValueExpr)
					if !ok {
						return true
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "Type" {
						return true
					}
					if sel, ok := kv.Value.(*ast.SelectorExpr); ok && (sel.Sel.Name == "TypeBegin" || sel.Sel.Name == "TypeEnd") {
						t.Errorf("%s: a wal.Record is built with Type %s; a chain starts at its first change and ends at its commit or abort record",
							fset.Position(kv.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}
