package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFaultsTraceGolden pins the -devices 4 -faults timeline byte for
// byte: the scripted slowdown, hang and link drop, the outages they
// cause and the injected-fault list. Regenerate with
// `go test ./cmd/ncsw-trace -run Golden -update` after an intentional
// fault, recovery or pricing change.
func TestFaultsTraceGolden(t *testing.T) {
	got, err := fleetTrace(4, 12, 1, 100, false, true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faults.golden", got)
}

// TestTenantsTraceGolden pins the -tenants timeline byte for byte: a
// fixed (devices, images, seed) session renders per-tenant lanes
// identically on every run and platform — the chart is simulator
// output, not wall-clock measurement. Regenerate with
// `go test ./cmd/ncsw-trace -run Golden -update` after an intentional
// scheduling or pricing change.
func TestTenantsTraceGolden(t *testing.T) {
	got, err := tenantsTrace(2, 80, 1, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tenantsTrace(2, 80, 1, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Fatal("tenants trace differs across reruns of the same configuration")
	}
	checkGolden(t, "tenants.golden", got)
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestTenantsTraceCSV sanity-checks the machine-readable form: every
// tenant declared by the scenario owns at least one lane span.
func TestTenantsTraceCSV(t *testing.T) {
	out, err := tenantsTrace(2, 40, 1, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ten:gold", "ten:silver", "ten:batch"} {
		if !containsTrack(out, id) {
			t.Errorf("CSV output has no spans for %s:\n%s", id, out)
		}
	}
}

// containsTrack reports whether any CSV record names the given track.
func containsTrack(csv, track string) bool {
	for _, line := range strings.Split(csv, "\n") {
		if strings.HasPrefix(line, track+",") {
			return true
		}
	}
	return false
}
