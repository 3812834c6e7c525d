package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture declares its expected findings inline with // want
// comments; allowlist paths assert by silence (a fixture full of
// violations, zero wants). The import path given to linttest.Run is
// what the analyzer's scope rules key on.

func TestWalltime(t *testing.T) {
	linttest.Run(t, lint.Walltime, "testdata/src/walltime", "repro/internal/fixture/walltime")
}

func TestWalltimeAllowsCmd(t *testing.T) {
	linttest.Run(t, lint.Walltime, "testdata/src/walltimecmd", "repro/cmd/fixture")
}

func TestSeededrand(t *testing.T) {
	linttest.Run(t, lint.Seededrand, "testdata/src/seededrand", "repro/internal/fixture/seededrand")
}

// Seededrand covers the whole module, cmd/ included — the same
// fixture under a cmd/ path must flag identically except that the
// fixture's want comments already encode the expectations, so here we
// reuse the internal fixture under a cmd path and expect the same
// findings.
func TestSeededrandCoversCmd(t *testing.T) {
	linttest.Run(t, lint.Seededrand, "testdata/src/seededrand", "repro/cmd/fixture")
}

func TestMaprange(t *testing.T) {
	linttest.Run(t, lint.Maprange, "testdata/src/maprange", "repro/internal/fixture/maprange")
}

func TestExportdoc(t *testing.T) {
	linttest.Run(t, lint.Exportdoc, "testdata/src/exportdoc", "repro/internal/fixture/exportdoc")
}

func TestExportdocSkipsNonInternal(t *testing.T) {
	linttest.Run(t, lint.Exportdoc, "testdata/src/exportdocouter", "repro/tools/fixture")
}

func TestResultstamp(t *testing.T) {
	linttest.Run(t, lint.Resultstamp, "testdata/src/resultstamp", "repro/internal/fixture/resultstamp")
}

func TestUnusedexport(t *testing.T) {
	linttest.Run(t, lint.Unusedexport, "testdata/src/unusedexport", "repro/internal/fixture/unusedexport")
}

func TestUnusedexportSkipsNonInternal(t *testing.T) {
	linttest.Run(t, lint.Unusedexport, "testdata/src/exportdocouter", "repro/tools/fixture")
}

func TestMalformedDirectives(t *testing.T) {
	linttest.Run(t, lint.Walltime, "testdata/src/malformed", "repro/internal/fixture/malformed")
}
