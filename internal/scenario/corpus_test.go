package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite the scenarios/golden/ files from this run")

// TestCorpus runs every committed scenario under scenarios/ at its
// declared (quick) scale and pins the full report rendering against
// scenarios/golden/<name>.golden. Each scenario also runs twice from
// a fresh parse — emission must be byte-identical — so the corpus
// doubles as the determinism suite. Regenerate goldens with
//
//	go test ./internal/scenario/ -run TestCorpus -update
//
// Every run also checks that the report's totals are the sums of its
// parts (checkCounterSums).
func TestCorpus(t *testing.T) {
	dir, err := DefaultCorpusDir()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 6 {
		t.Fatalf("corpus holds %d scenarios, want at least 6", len(scs))
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkCounterSums(t, res.Report)
			got := res.String()

			// Determinism: a fresh parse of the same file must emit
			// byte-identical text.
			again, err := LoadFile(sc.File)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := again.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got2 := res2.String(); got2 != got {
				t.Fatalf("second run differs from first:\n--- first ---\n%s\n--- second ---\n%s", got, got2)
			}

			base := strings.TrimSuffix(filepath.Base(sc.File), ".json")
			golden := filepath.Join(dir, "golden", base+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}

// checkCounterSums asserts that the report's fault and hedge counters
// are the sums of its device groups' and, in a tenant session, that its
// admission drops are the sums of its tenants'. The session notes each
// event on the total and on one part, so a hook that counts on only one
// side breaks a sum.
func checkCounterSums(t *testing.T, rep *pipeline.Report) {
	t.Helper()
	type counter struct {
		name string
		get  func(core.Counters) int
	}
	check := func(parts string, counters []counter, of []core.Counters) {
		for _, c := range counters {
			sum := 0
			for _, part := range of {
				sum += c.get(part)
			}
			if total := c.get(rep.Counters); sum != total {
				t.Errorf("%s: %s sum to %d, report says %d", c.name, parts, sum, total)
			}
		}
	}
	var groups, tenants []core.Counters
	for _, g := range rep.Targets {
		groups = append(groups, g.Counters)
	}
	check("groups", []counter{
		{"Retries", func(c core.Counters) int { return c.Retries }},
		{"FaultDrops", func(c core.Counters) int { return c.FaultDrops }},
		{"Outages", func(c core.Counters) int { return c.Outages }},
		{"Recovered", func(c core.Counters) int { return c.Recovered }},
		{"Hedged", func(c core.Counters) int { return c.Hedged }},
		{"HedgeWins", func(c core.Counters) int { return c.HedgeWins }},
		{"HedgeWaste", func(c core.Counters) int { return c.HedgeWaste }},
	}, groups)
	if len(rep.Tenants) == 0 {
		return
	}
	for _, tr := range rep.Tenants {
		tenants = append(tenants, tr.Counters)
	}
	check("tenants", []counter{
		{"Shed", func(c core.Counters) int { return c.Shed }},
		{"Expired", func(c core.Counters) int { return c.Expired }},
		{"QuotaRejected", func(c core.Counters) int { return c.QuotaRejected }},
	}, tenants)
}
