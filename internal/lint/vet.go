package lint

import (
	"fmt"
	"io"
)

// All returns the full analyzer suite in the order diagnostics
// attribute them. This is the set `ncsw-vet` runs and the set
// //ncsw:allow directives may name.
func All() []*Analyzer {
	return []*Analyzer{Exportdoc, Maprange, Resultstamp, Seededrand, Unusedexport, Walltime}
}

// Vet loads the packages matched by patterns, runs every analyzer,
// and prints one "file:line:col: analyzer: message" finding per line
// to w. It returns the number of findings; a non-nil error means the
// load itself failed (bad pattern, unparseable or untypeable source).
// cmd/ncsw-vet is a thin wrapper that turns findings > 0 into exit
// status 1 — tests call Vet directly to prove that a seeded violation
// makes the binary fail.
func Vet(w io.Writer, patterns ...string) (int, error) {
	u := NewUniverse()
	pkgs, err := u.Load(patterns...)
	if err != nil {
		return 0, err
	}
	return VetPackages(w, pkgs), nil
}

// VetPackages runs the full suite over already-loaded packages and
// prints findings to w, returning their count.
func VetPackages(w io.Writer, pkgs []*Package) int {
	analyzers := All()
	n := 0
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, analyzers) {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
			n++
		}
	}
	return n
}
