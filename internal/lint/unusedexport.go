package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
)

// Unusedexport reports exported package-level declarations and
// methods in internal/ packages that no non-test file references: API
// that only tests call is deleted, or moved into the _test.go file of
// the package whose tests use it.
//
// References count from every non-test file of the module and of the
// modules nested in it (cmd/ncsw-perf builds against this one), so
// vetting one package reports what a whole-module run reports for it.
// A generic instance counts for its origin (types.Func.Origin); a
// receiver is not a use of its type. A method also counts as used when
// a package-level type whose method set holds it, promoted methods
// included, implements an interface with that method: one declared
// or written as a literal in a loaded package, or error (whose
// implementers' Unwrap, Is and As the errors package calls).
//
// A hook that tests in another package need to drive or observe the
// code stays under //ncsw:allow unusedexport <the tests that use it>.
var Unusedexport = &Analyzer{
	Name: "unusedexport",
	Doc:  "report exported internal/ API that no non-test code references",
	Run: func(pass *Pass) {
		if !isInternalPkg(pass.Path) {
			return
		}
		used, err := pass.pkg.universe.moduleUses()
		if err != nil {
			pass.Reportf(pass.Files[0].Package, "cannot index the module's references: %v", err)
			return
		}
		if !used.pkgs[pass.Pkg] {
			// A package outside the module listing (a fixture) adds
			// its own references to a copy of the index.
			used = &useIndex{objs: maps.Clone(used.objs), ifaces: slices.Clip(used.ifaces), pkgs: map[*types.Package]bool{}}
			used.add([]*Package{pass.pkg})
		}
		for _, f := range pass.Files {
			if isTestFile(pass.Filename(f.Pos())) {
				continue
			}
			for _, id := range exportedNames(f) {
				if obj := pass.Info.Defs[id]; obj != nil && !used.objs[obj] {
					pass.Reportf(id.Pos(), "exported %s has no non-test reference — delete it, or move it into the _test.go file that uses it", qualifiedName(obj))
				}
			}
		}
	},
}

// exportedNames returns the exported identifiers f declares at package
// level: functions, methods, types, consts and vars.
func exportedNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return slices.DeleteFunc(out, func(id *ast.Ident) bool { return !id.IsExported() })
}

// qualifiedName is obj's name, prefixed with its receiver's type name
// for a method.
func qualifiedName(obj types.Object) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}

// useIndex holds the objects that non-test code references or reaches
// through an interface, the interfaces that make a method reachable,
// and the packages indexed.
type useIndex struct {
	objs   map[types.Object]bool
	ifaces []*types.Interface
	pkgs   map[*types.Package]bool
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// moduleUses indexes, once per universe, the module containing the
// working directory and the modules nested in it.
func (u *Universe) moduleUses() (*useIndex, error) {
	if u.uses == nil && u.usesErr == nil {
		u.uses, u.usesErr = u.indexModules()
	}
	return u.uses, u.usesErr
}

func (u *Universe) indexModules() (*useIndex, error) {
	dirs, err := moduleDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	seen := map[*Package]bool{}
	for _, dir := range dirs {
		listed, err := goListIn(dir, []string{"-deps", "./..."})
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			p, err := u.check(lp)
			if err != nil {
				return nil, err
			}
			if !seen[p] {
				seen[p] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	x := &useIndex{objs: map[types.Object]bool{}, ifaces: []*types.Interface{errorType}, pkgs: map[*types.Package]bool{}}
	x.add(pkgs)
	return x, nil
}

// add indexes pkgs: the interfaces of all of them first, then the
// references and interface implementations of the non-standard ones.
func (x *useIndex) add(pkgs []*Package) {
	for _, p := range pkgs {
		x.addInterfaces(p)
	}
	for _, p := range pkgs {
		if !p.Standard {
			x.pkgs[p.Types] = true
			x.addUses(p)
			x.addImplementers(p.Types)
		}
	}
}

// addInterfaces records the interfaces with methods and no type
// parameters that p declares at package level or, in its non-test
// files, writes as literals (a type assertion to interface{ M() }).
func (x *useIndex) addInterfaces(p *Package) {
	add := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			x.ifaces = append(x.ifaces, it)
		}
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
				add(tn.Type().Underlying())
			}
		}
	}
	for _, f := range p.Files {
		if !isTestFile(p.Fset.Position(f.Pos()).Filename) {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(p.Info.TypeOf(it))
				}
				return true
			})
		}
	}
}

// addUses records every object p's non-test files reference, except
// a method's receiver type.
func (x *useIndex) addUses(p *Package) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil {
				x.objs[origin(obj)] = true
			}
		}
		return true
	}
	for _, f := range p.Files {
		if !isTestFile(p.Fset.Position(f.Pos()).Filename) {
			ast.Inspect(f, visit)
		}
	}
}

// addImplementers records, for each package-level type of pkg, the
// methods (promoted ones included) that an interface it implements
// reaches.
func (x *useIndex) addImplementers(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		for _, it := range x.ifaces {
			if !hasMethods(mset, it) || !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				x.objs[origin(mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()).Obj())] = true
			}
			if it == errorType {
				for _, m := range []string{"Unwrap", "Is", "As"} {
					if sel := mset.Lookup(nil, m); sel != nil {
						x.objs[origin(sel.Obj())] = true
					}
				}
			}
		}
	}
}

// hasMethods is the cheap filter before types.Implements: mset holds a
// method of every name it declares.
func hasMethods(mset *types.MethodSet, it *types.Interface) bool {
	for i := range it.NumMethods() {
		if mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// origin maps a generic instance's method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
