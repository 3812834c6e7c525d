// Package lint is the ncsw-vet static-analysis suite: six
// domain-specific analyzers that enforce the determinism and
// API-hygiene invariants every benchmark table in this reproduction
// rests on (DESIGN.md §4, §8).
//
// The package mirrors the golang.org/x/tools/go/analysis vocabulary —
// an Analyzer owns a Run function over a Pass and emits Diagnostics —
// but is self-contained on the standard library (go/ast, go/types,
// and the go command for package listing), because the module
// deliberately has no external dependencies. If the module ever grows
// an x/tools dependency the analyzers port mechanically: Run signatures
// and Diagnostic semantics match.
//
// Findings are suppressible at the site with a
//
//	//ncsw:allow <analyzer> <reason>
//
// directive on the flagged line or the line directly above it; the
// reason is mandatory and should say why the invariant does not apply,
// and a directive that suppresses nothing is itself a finding (see
// suppress.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check: a name the suppression directive and
// CLI refer to it by, one line of documentation, and a Run function
// applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ncsw:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the one-line description shown by `ncsw-vet -help`.
	Doc string
	// Run inspects one package and reports findings through
	// pass.Report/Reportf. Scope rules (which packages and files the
	// invariant covers) live inside Run, so fixture tests exercise
	// them exactly as the real driver does.
	Run func(pass *Pass)
}

// Pass carries one package through one analyzer: the parsed files,
// the type information, and the diagnostic sink.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps AST positions to file:line.
	Fset *token.FileSet
	// Path is the package import path (e.g. "repro/internal/core").
	// Fixture packages get their testdata-relative path, so scope
	// rules keyed on path segments are testable.
	Path string
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds expression types, uses and defs for Files.
	Info *types.Info

	pkg   *Package
	diags []Diagnostic
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	// Pos is the position of the offending syntax.
	Pos token.Pos
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the violation and, by convention, the fix.
	Message string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Filename returns the name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string { return p.Fset.Position(pos).Filename }

// TypeOf returns the type of expr, or nil when unknown.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Info.Types[expr]; ok {
		return tv.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// RunAnalyzers applies the given analyzers to pkg and returns the
// suppression-filtered findings sorted by position. Malformed
// //ncsw:allow directives, and stale ones naming an analyzer in
// analyzers, surface as findings here too (attributed to "ncsw-vet").
// The fixture harness (linttest) calls this with a single analyzer;
// the driver calls it with All().
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			pkg:      pkg,
		}
		a.Run(pass)
		raw = append(raw, pass.diags...)
	}
	out := applySuppressions(pkg, raw, ran)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// isTestFile reports whether filename is a Go test file. Test files
// are allowlisted by every determinism analyzer: tests may read wall
// clocks, seed nothing, and build half-stamped literals freely.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// isInternalPkg reports whether path lies under an internal/ element —
// the production surface the determinism invariants cover. cmd/,
// examples/ and the root facade sit outside it by construction.
func isInternalPkg(path string) bool {
	return path == "internal" ||
		strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") ||
		strings.HasSuffix(path, "/internal")
}
