package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	// Path is the import path.
	Path string
	// Fset is the file set the package was parsed into (shared across
	// the whole Universe).
	Fset *token.FileSet
	// Files are the parsed non-test Go files, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
	// Standard marks a Go standard-library package; those are loaded
	// only to feed the type-checker, never analyzed.
	Standard bool

	universe *Universe
}

// Universe loads packages by shelling out to `go list` for module- and
// build-aware file listing, then parses and type-checks everything
// from source with go/parser and go/types. It exists because this
// module has no external dependencies: golang.org/x/tools/go/packages
// would do this job, and the Universe is the stdlib-only stand-in.
//
// Standard-library dependencies are type-checked with function bodies
// ignored (only their exported shape matters); module packages get
// full checking. All packages share one FileSet and one type
// identity space, so a core.Item seen from internal/bench is the same
// *types.Named as one seen from internal/core.
type Universe struct {
	fset *token.FileSet
	pkgs map[string]*Package

	// uses is the module's reference index, built on the first
	// unusedexport pass (see moduleUses).
	uses    *useIndex
	usesErr error
}

// NewUniverse returns an empty universe. Loading is lazy: packages
// are listed, parsed and checked on first demand.
func NewUniverse() *Universe {
	return &Universe{fset: token.NewFileSet(), pkgs: map[string]*Package{}}
}

// listPkg is the subset of `go list -json` output the loader uses.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList runs `go list -json` with the given arguments (flags such as
// -deps included) and returns the decoded packages in listing order —
// with -deps that is dependency order, dependencies first, exactly
// what the type-checker needs.
func goList(args []string) ([]*listPkg, error) { return goListIn("", args) }

// goListIn is goList run in directory dir ("" for the working
// directory), which selects the module the patterns resolve in.
func goListIn(dir string, args []string) ([]*listPkg, error) {
	args = append([]string{"list", "-json=ImportPath,Dir,GoFiles,Standard"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Force the pure-Go build so cgo-flavoured stdlib variants (net,
	// os/user) never reach the source type-checker.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists patterns with the go tool and returns the matched
// non-standard packages, parsed and type-checked, in listing order.
// The dependency closure is loaded too (the type-checker needs it),
// but only packages the patterns themselves matched are returned for
// analysis.
func (u *Universe) Load(patterns ...string) ([]*Package, error) {
	// -deps emits the full closure in dependency order; the plain
	// listing tells us which packages the patterns matched.
	listed, err := goList(append([]string{"-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	matched, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, lp := range matched {
		want[lp.ImportPath] = true
	}
	var sel []*Package
	for _, lp := range listed {
		p, err := u.check(lp)
		if err != nil {
			return nil, err
		}
		if want[lp.ImportPath] {
			sel = append(sel, p)
		}
	}
	return sel, nil
}

// Package loads (or returns the cached) package for one import path,
// pulling in its dependency closure as needed.
func (u *Universe) Package(path string) (*Package, error) {
	if p, ok := u.pkgs[path]; ok {
		return p, nil
	}
	listed, err := goList([]string{"-deps", path})
	if err != nil {
		return nil, err
	}
	for _, lp := range listed {
		if _, err := u.check(lp); err != nil {
			return nil, err
		}
	}
	p, ok := u.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("lint: %s not resolved by go list", path)
	}
	return p, nil
}

// check parses and type-checks one listed package (its dependencies
// must already be in the universe — go list -deps order guarantees it).
func (u *Universe) check(lp *listPkg) (*Package, error) {
	if p, ok := u.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	if lp.ImportPath == "unsafe" {
		p := &Package{Path: "unsafe", Fset: u.fset, Types: types.Unsafe, Standard: true, universe: u}
		u.pkgs["unsafe"] = p
		return p, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		af, err := parser.ParseFile(u.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, af)
	}
	p, err := u.typeCheck(lp.ImportPath, files, lp.Standard)
	if err != nil {
		return nil, err
	}
	u.pkgs[lp.ImportPath] = p
	return p, nil
}

// TypeCheckFiles parses and type-checks an ad-hoc file list as a
// package with the given import path, resolving imports through the
// universe. The fixture harness (linttest) uses it to build packages
// out of testdata that the go tool itself never sees. The result is
// not cached: fixtures may not import each other.
func (u *Universe) TypeCheckFiles(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		af, err := parser.ParseFile(u.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, af)
	}
	return u.typeCheck(path, files, false)
}

// typeCheck runs go/types over parsed files, resolving imports from
// the universe (loading them on demand).
func (u *Universe) typeCheck(path string, files []*ast.File, standard bool) (*Package, error) {
	var typeErrs []error
	cfg := types.Config{
		Importer:         importerFunc(u.importPkg),
		IgnoreFuncBodies: standard,
		FakeImportC:      true,
		Error:            func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tp, _ := cfg.Check(path, u.fset, files, info)
	if len(typeErrs) > 0 && !standard {
		return nil, fmt.Errorf("lint: type-checking %s: %v (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{Path: path, Fset: u.fset, Files: files, Types: tp, Info: info, Standard: standard, universe: u}, nil
}

// importPkg resolves one import for the type-checker, loading the
// package on demand if a fixture pulled in something outside the
// already-listed closure.
func (u *Universe) importPkg(path string) (*types.Package, error) {
	p, err := u.Package(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// moduleDirs returns the root directory of the module containing the
// working directory, then the directory of every module nested under
// it (testdata, vendor and dot/underscore directories skipped), in
// lexical order.
func moduleDirs() ([]string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("lint: the working directory is not inside a module")
	}
	root := filepath.Dir(gomod)
	dirs := []string{root}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && d.Name() == "go.mod" && filepath.Dir(path) != root {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}
