package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for ncsw-perf: the benchmark
// re-executes itself for every repetition, and a child started from a
// test must run the benchmark, not the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchSpec is the part of BENCHMARK.json the benchmark must honour.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// repoRoot is the repository root; tests run in the package directory,
// whose own go.mod hides the root from scenario.DefaultCorpusDir.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runBench runs the benchmark in-process and returns its exit code,
// its standard output and its last line decoded.
func runBench(t *testing.T, args ...string) (int, string, summary) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	var line summary
	if i := strings.LastIndexByte(out, '\n'); out != "" {
		if err := json.Unmarshal([]byte(out[i+1:]), &line); err != nil {
			t.Fatalf("last line is not the summary: %v\n%s\nstderr:\n%s", err, out, stderr.String())
		}
	}
	return code, out, line
}

// TestQuickRun runs every workload at the test scale with a traced run
// and checks the metric names and units against BENCHMARK.json, that
// nothing failed, and that the traced span trees are well formed.
func TestQuickRun(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(e2e, hostMetrics) || !reflect.DeepEqual(layers, listedLayers) {
		t.Fatalf("BENCHMARK.json names\n  %v\n  %v\nwant\n  %v\n  %v", e2e, layers, hostMetrics, listedLayers)
	}

	spansFile := filepath.Join(t.TempDir(), "spans.json")
	code, out, line := runBench(t, "-quick", "-reps", "1", "-json", "-spans", spansFile, "-root", root)
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted != 2*len(workloadTable) {
		t.Fatalf("exit %d, summary %+v, want exit 0 and no failed run\n%s", code, line, out)
	}
	var doc struct{ Workloads []*result }
	if err := json.Unmarshal([]byte(strings.SplitN(out, "\n", 2)[0]), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads reported, want %d", len(doc.Workloads), len(workloadTable))
	}
	for _, res := range doc.Workloads {
		for _, m := range spec.EndToEnd {
			if s, ok := res.Host[m.Name]; !ok || s.Unit != m.Unit || s.N != 1 {
				t.Errorf("%s: end-to-end %s = %+v, want unit %s and n 1", res.Workload, m.Name, s, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			if got, ok := line.Metrics[res.Workload+"."+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", res.Workload, m.Name, got, m.Unit)
			}
		}
		if res.Digest == "" {
			t.Errorf("%s: no report digest", res.Workload)
		}
	}

	raw, err := os.ReadFile(spansFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans map[string][]span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if len(spans[w]) == 0 {
			t.Errorf("%s: no spans", w)
		}
		if err := checkSpans(spans[w]); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestQuartiles pins the method to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		if q1, med, q3 := quartiles(c.in); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	for name, spans := range map[string][]span{
		"child outside parent": {{Name: "a", Parent: -1, Start: 0, End: 10}, {Name: "b", Parent: 0, Start: 5, End: 11}},
		"negative self time":   {{Name: "a", Parent: -1, Start: 0, End: 10}, {Name: "b", Parent: 0, Start: 0, End: 6}, {Name: "c", Parent: 0, Start: 4, End: 10}},
		"ends before start":    {{Name: "a", Parent: -1, Start: 5, End: 4}},
		"forward parent":       {{Name: "a", Parent: 1, Start: 0, End: 1}, {Name: "b", Parent: -1, Start: 0, End: 2}},
	} {
		if checkSpans(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// corpusCopy writes a repository root holding only the test-scale
// corpus file and its golden, and returns it.
func corpusCopy(t *testing.T) string {
	t.Helper()
	src := filepath.Join(repoRoot(t), "scenarios")
	dst := filepath.Join(t.TempDir(), "scenarios")
	if err := os.MkdirAll(filepath.Join(dst, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("golden", strings.TrimSuffix(quickCorpus, ".json")+".golden")
	for _, f := range []string{quickCorpus, golden} {
		data, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Dir(dst)
}

func appendTo(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	root := corpusCopy(t)
	appendTo(t, filepath.Join(root, "scenarios", "golden", "slo-bounded.golden"), "drift\n")
	code, out, line := runBench(t, "-quick", "-reps", "1", "-trace", "0", "-workload", "corpus", "-root", root)
	if code != 1 || line.Correct || line.Failed != 1 || !strings.Contains(out, "differs from scenarios/golden/slo-bounded.golden") {
		t.Fatalf("exit %d, summary %+v, want exit 1 and one failed run\n%s", code, line, out)
	}
}

func TestDriftedInputStopsTheRun(t *testing.T) {
	root := corpusCopy(t)
	appendTo(t, filepath.Join(root, "scenarios", quickCorpus), "\n")
	code, out, _ := runBench(t, "-quick", "-reps", "1", "-workload", "corpus", "-root", root)
	if code != 2 || out != "" {
		t.Fatalf("exit %d with output %q, want exit 2 and no result", code, out)
	}
}
