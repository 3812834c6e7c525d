package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFacadeSurface pins the facade's exported names to
// testdata/facade.golden, one "kind Name" line each, sorted, so adding
// or dropping a re-export shows up as a golden diff in review. The
// names come from parsing the package's non-test files. Regenerate
// with
//
//	go test -run TestFacadeSurface . -update
func TestFacadeSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, exportedNames(f)...)
	}
	slices.Sort(names)
	got := strings.Join(names, "\n") + "\n"

	path := filepath.Join("testdata", "facade.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	wantNames := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, n := range names {
		if !slices.Contains(wantNames, n) {
			t.Errorf("facade exports %q, not in %s", n, path)
		}
	}
	for _, n := range wantNames {
		if !slices.Contains(names, n) {
			t.Errorf("facade no longer exports %q, listed in %s", n, path)
		}
	}
	t.Errorf("facade surface differs from %s (regenerate with -update)", path)
}

// exportedNames lists f's exported top-level funcs, types, consts and
// vars as "kind Name". The facade declares only aliases, which carry no
// methods of their own.
func exportedNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							names = append(names, d.Tok.String()+" "+id.Name)
						}
					}
				}
			}
		}
	}
	return names
}
