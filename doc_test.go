package ariesrh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocComments is the doc-comment lint that rides the test suite (and
// with it `make ci`): every exported symbol of the public API and of the
// packages that carry crash-safety contracts must state that contract in
// a doc comment.  An exported symbol without one is a build break, not a
// style nit — the durability semantics of this library live in those
// comments.
func TestDocComments(t *testing.T) {
	dirs := []string{".", "internal/wal", "internal/fault", "internal/torture", "internal/shard"}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDecl(t, fset, path, decl)
				}
			}
		}
	}
}

func checkDecl(t *testing.T, fset *token.FileSet, path string, decl ast.Decl) {
	t.Helper()
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		t.Errorf("%s:%d: exported %s has no doc comment", path, p.Line, what)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		// Methods on unexported receiver types are not part of the API.
		if d.Recv != nil && !exportedReceiver(d.Recv) {
			return
		}
		if d.Doc == nil {
			report(d.Pos(), "function "+d.Name.Name)
		}
	case *ast.GenDecl:
		if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
			return
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
					report(s.Pos(), "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
						report(name.Pos(), "declaration "+name.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// TestOptionsOnlyShrink pins the public Options to the fields it has
// today, so the mode matrix (EarlyLockRelease × ParallelRecovery × Shards)
// and its plumbing can only shrink: a new field fails here, a deleted one
// does not.  Deleting a field should also delete it from publicOptions.
func TestOptionsOnlyShrink(t *testing.T) {
	publicOptions := map[string]bool{
		"Dir": true, "PoolSize": true, "FaultDir": true, "EarlyLockRelease": true,
		"Shards": true, "ShardRouter": true, "ParallelRecovery": true,
	}
	var fields []string
	for _, u := range parseFileUses(t) {
		if u.dir == "." {
			fields = append(fields, u.structs["Options"]...)
		}
	}
	if len(fields) == 0 {
		t.Fatal("ariesrh.Options not found")
	}
	for _, f := range fields {
		if !publicOptions[f] {
			t.Errorf("ariesrh.Options.%s is new: the options may only lose fields (%d allowed: %v)", f, len(publicOptions), publicOptions)
		}
	}
	if len(fields) > len(publicOptions) {
		t.Errorf("ariesrh.Options has %d fields, at most %d allowed", len(fields), len(publicOptions))
	}
}

// optionStructs names every options struct in the tree: the directory
// that declares it, how a composite literal spells the type from another
// package, and whether every caller lives in this tree (the public
// structs' callers do not).
var optionStructs = []struct {
	dir, qualified string
	internal       bool
}{
	{".", "ariesrh.Options", false},
	{".", "ariesrh.StandbyOptions", false},
	{"internal/core", "core.Options", true},
	{"internal/shard", "shard.Options", true},
	{"internal/wal", "wal.LogOptions", true},
	{"internal/rewrite", "rewrite.Options", true},
}

// fileUses is what one non-test file declares and does with field names:
// the fields of each struct type it declares, the names it selects (x.F)
// and assigns through (x.F = v), and the keys it sets in composite
// literals, as "Type.F" with the type as the literal spells it ("Options",
// "core.Options").
type fileUses struct {
	dir      string
	structs  map[string][]string
	selected map[string]bool
	assigned map[string]bool
	keyed    map[string]bool
}

func parseFileUses(t *testing.T) []fileUses {
	t.Helper()
	var out []fileUses
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build scratch
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		u := fileUses{dir: filepath.Dir(path), structs: map[string][]string{},
			selected: map[string]bool{}, assigned: map[string]bool{}, keyed: map[string]bool{}}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							u.structs[x.Name.Name] = append(u.structs[x.Name.Name], id.Name)
						}
					}
				}
			case *ast.SelectorExpr:
				u.selected[x.Sel.Name] = true
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						u.assigned[sel.Sel.Name] = true
					}
				}
			case *ast.CompositeLit:
				var typ string
				switch tt := x.Type.(type) {
				case *ast.Ident:
					typ = tt.Name
				case *ast.SelectorExpr:
					if pkg, ok := tt.X.(*ast.Ident); ok {
						typ = pkg.Name + "." + tt.Sel.Name
					}
				}
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							u.keyed[typ+"."+key.Name] = true
						}
					}
				}
			}
			return true
		})
		out = append(out, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOptionsFieldsAreRead is the dead-knob lint: an options field must
// have a reader and, where that can be checked, a caller.
//
//   - Every field is selected (x.Field) by a non-test file of the package
//     that declares it: a field nothing consults is wired to nothing.
//   - Every field of an internal package's options — all of whose callers
//     are in this tree — is also set by non-test code: as a key of a
//     composite literal of that type, or assigned from another package.
//     A field no caller sets always holds its zero value, and the branch
//     that reads it is dead.
//
// The match is by name (go/ast, no type information), so it can miss a
// dead field that shares its name with a live one; it cannot flag a live
// field.
func TestOptionsFieldsAreRead(t *testing.T) {
	files := parseFileUses(t)
	for _, o := range optionStructs {
		local := o.qualified[strings.Index(o.qualified, ".")+1:]
		var fields []string
		for _, u := range files {
			if u.dir == o.dir {
				fields = append(fields, u.structs[local]...)
			}
		}
		if len(fields) == 0 {
			t.Fatalf("%s: struct %s not found", o.dir, local)
		}
		for _, field := range fields {
			read, set := false, false
			for _, u := range files {
				inPkg := u.dir == o.dir
				if inPkg && u.selected[field] {
					read = true
				}
				if u.keyed[o.qualified+"."+field] || (inPkg && u.keyed[local+"."+field]) || (!inPkg && u.assigned[field]) {
					set = true
				}
			}
			if !read {
				t.Errorf("%s.%s: no non-test file of %s reads it", o.qualified, field, o.dir)
			}
			if o.internal && !set {
				t.Errorf("%s.%s: no non-test file sets it (a knob nobody turns)", o.qualified, field)
			}
		}
	}
}
