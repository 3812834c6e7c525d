package repro

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples/*.golden and testdata/facade.golden from this run")

// TestExamplesSmoke builds and runs every example at tiny scale
// (NCSW_EXAMPLE_IMAGES caps the session sizes) and compares its
// combined output with testdata/examples/<name>.golden byte for byte.
// Every example is deterministic: its tables are simulated outcomes,
// not wall-clock times. Regenerate with
//
//	go test -run TestExamplesSmoke . -update
//
// Skipped under -short.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test skipped in -short mode")
	}
	examples := []string{
		"quickstart", "multivpu", "streaming", "precision", "powerstudy", "serving", "slo", "resilience", "hedging", "split",
	}
	for _, name := range examples {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Env = append(os.Environ(), "NCSW_EXAMPLE_IMAGES=16")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			path := filepath.Join("testdata", "examples", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("example %s output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, out, want)
			}
		})
	}
}
