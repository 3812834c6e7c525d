// Package linttest is the fixture harness for the ncsw-vet analyzer
// suite — the stdlib stand-in for golang.org/x/tools/go/analysis/
// analysistest, which this module deliberately does not depend on.
//
// A fixture is a directory of Go files under the calling test's
// testdata/ tree. Expected findings are declared inline with trailing
// comments of the form
//
//	time.Now() // want `reads the wall clock`
//
// where each backquoted or double-quoted segment after `want` is a
// regular expression one diagnostic on that line must match. Lines
// without a want comment must produce no diagnostic, so allowlist
// paths (cmd/, *_test.go) and //ncsw:allow suppressions are asserted
// by silence. The harness fails the test on any unmatched diagnostic
// or unsatisfied expectation.
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts a want comment's expectation list. The want-below
// form anchors the expectation to the following line — needed when
// the flagged line is itself a comment (e.g. a malformed //ncsw:allow
// directive), where a trailing remark would merge into it.
var wantRe = regexp.MustCompile(`// want(-below)? (.*)$`)

// wantArgRe extracts the individual quoted regexps of a want comment.
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// universe is shared by every Run of a test binary, so the standard
// library fixtures import is listed and type-checked once. Fixtures
// themselves are never cached (lint.Universe.TypeCheckFiles), so two
// fixtures may use the same import path. Run holds universeMu
// throughout: a Universe is not safe for concurrent use.
var (
	universeMu sync.Mutex
	universe   *lint.Universe
)

// expectation is one `// want` regexp waiting for a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run type-checks the fixture directory as a package with the given
// import path (scope rules key on the path, so fixtures choose their
// own: "repro/internal/..." is covered, "repro/cmd/..." is
// allowlisted), runs exactly one analyzer, and asserts the findings
// against the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("linttest: no fixture files in %s", dir)
	}

	universeMu.Lock()
	defer universeMu.Unlock()
	if universe == nil {
		universe = lint.NewUniverse()
	}
	pkg, err := universe.TypeCheckFiles(importPath, files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	var wants []*expectation
	for _, name := range files {
		wants = append(wants, parseWants(t, name)...)
	}

	for _, d := range lint.RunAnalyzers(pkg, []*lint.Analyzer{a}) {
		pos := pkg.Fset.Position(d.Pos)
		if exp := claim(wants, pos.Filename, pos.Line, d.Message); exp == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseWants reads one fixture file's want comments.
func parseWants(t *testing.T, filename string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var out []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		target := i + 1
		if m[1] == "-below" {
			target = i + 2
		}
		args := wantArgRe.FindAllStringSubmatch(m[2], -1)
		if len(args) == 0 {
			t.Fatalf("%s:%d: malformed want comment %q", filename, i+1, line)
		}
		for _, a := range args {
			pat := a[1]
			if pat == "" {
				pat = a[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", filename, i+1, err)
			}
			out = append(out, &expectation{file: filename, line: target, re: re})
		}
	}
	return out
}

// claim matches a diagnostic to the first unclaimed expectation on
// its line, returning nil when none fits.
func claim(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return w
		}
	}
	return nil
}
