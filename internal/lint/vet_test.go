package lint_test

import (
	"bytes"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestVetFindsSeededViolations proves the driver end of the pipeline:
// pointed at a fixture package full of violations, Vet reports them.
func TestVetFindsSeededViolations(t *testing.T) {
	var out bytes.Buffer
	n, err := lint.Vet(&out, "./testdata/src/walltime")
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	if n == 0 {
		t.Fatalf("Vet found no violations in the seeded fixture; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "walltime:") {
		t.Errorf("Vet output does not attribute findings to walltime:\n%s", out.String())
	}
}

// TestVetBinaryExitsNonZero runs the actual ncsw-vet binary against a
// seeded violation and asserts the non-zero exit status CI depends
// on. Skipped under -short: it shells out to the go tool.
func TestVetBinaryExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("exec of go run under -short")
	}
	cmd := exec.Command("go", "run", "./cmd/ncsw-vet", "./internal/lint/testdata/src/walltime")
	cmd.Dir = "../.." // module root
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected ncsw-vet to exit non-zero on seeded violations, got err=%v, output:\n%s", err, out)
	}
	if ee.ExitCode() == 0 {
		t.Fatalf("ncsw-vet exited 0 on seeded violations:\n%s", out)
	}
	if !strings.Contains(string(out), "finding(s)") {
		t.Errorf("ncsw-vet output missing findings summary:\n%s", out)
	}
}

// TestVetRepoIsClean is the in-tree mirror of the CI lint job: the
// whole module must vet clean. Skipped under -short (it loads and
// type-checks every package in the module).
func TestVetRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module vet under -short")
	}
	var out bytes.Buffer
	n, err := lint.Vet(&out, "repro/...")
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	if n != 0 {
		t.Errorf("ncsw-vet found %d finding(s) in the module:\n%s", n, out.String())
	}
}

// TestVetOnePackageMatchesModule: unusedexport counts references from
// the whole module whatever packages Vet was pointed at, so vetting
// internal/half (and the unusedexport fixture, which has findings)
// reports what the whole-module run reports for them. Skipped under
// -short (it loads and type-checks every package in the module).
func TestVetOnePackageMatchesModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module vet under -short")
	}
	findings := func(patterns ...string) []string {
		var out bytes.Buffer
		if _, err := lint.Vet(&out, patterns...); err != nil {
			t.Fatalf("Vet: %v", err)
		}
		var lines []string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, ": unusedexport: ") && (strings.Contains(l, "/internal/half/") || strings.Contains(l, "/testdata/src/unusedexport/")) {
				lines = append(lines, l)
			}
		}
		return lines
	}
	one := findings("./testdata/src/unusedexport", "repro/internal/half")
	all := findings("./testdata/src/unusedexport", "repro/...")
	if len(one) == 0 || !slices.Equal(one, all) {
		t.Errorf("one-package findings differ from the whole-module run's:\n%s\n---\n%s", strings.Join(one, "\n"), strings.Join(all, "\n"))
	}
}
