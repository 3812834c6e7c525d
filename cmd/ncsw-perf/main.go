// Command ncsw-perf is the repository's benchmark. For each of four
// workloads it measures the host cost of running the simulator — set-up,
// run and wall time, allocation, live heap — over repetitions that each
// start in a fresh process, checks the simulated outputs (goldens,
// determinism across repetitions, item conservation), and then runs the
// workload once more traced to split the host cost by layer.
//
// It is a module of its own; from the repository root:
//
//	bash cmd/ncsw-perf/bench.sh                       # all workloads, 5 reps, traced
//	bash cmd/ncsw-perf/bench.sh -workload corpus -trace 0
//
// README.md defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/scenario"
)

// options are the settings a repetition needs; the parent passes them
// on to every child process.
type options struct {
	root  string
	seed  uint64
	quick bool
}

// childEnv marks a child process, so a test binary re-executed as a
// child runs the benchmark instead of its tests.
const childEnv = "NCSW_PERF_CHILD"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program. Exit codes: 0 all checks passed, 1 a
// repetition failed, 2 bad usage or drifted inputs (no result printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncsw-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list   = fs.String("workload", strings.Join(workloadNames(), ","), "comma-separated workloads to run")
		seed   = fs.Uint64("seed", 0, "override every workload's seed; 0 keeps the pinned seeds, the only ones the corpus goldens hold for")
		reps   = fs.Int("reps", 5, "untraced repetitions per workload, each in a fresh process")
		trace  = fs.Int("trace", 1, "1: add a traced run per workload and end with the per-layer metrics; 0: end with the end-to-end metrics")
		asJSON = fs.Bool("json", false, "print the results as one JSON document instead of tables")
		spans  = fs.String("spans", "", "write the traced runs' spans to this JSON file")
		root   = fs.String("root", "", "repository root holding scenarios/ (default: the module root above the working directory)")
		quick  = fs.Bool("quick", false, "test scale: small image counts, and only "+quickCorpus+" from the corpus")
		child  = fs.String("child", "", "internal: run one repetition (rep or traced) of the single -workload and print it as JSON")
	)
	// Benchmark harnesses pass the time they budget for a run as
	// -seconds. Run length is fixed by -reps, so that n does not depend
	// on how fast the host is; the value is accepted and not used.
	fs.Float64("seconds", 0, "accepted from benchmark harnesses and ignored: -reps alone sets the run length")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ncsw-perf: bad arguments (want -reps >= 1, -trace 0|1, no positional arguments)\n")
		return 2
	}
	o := options{root: *root, seed: *seed, quick: *quick}
	if o.root == "" {
		corpus, err := scenario.DefaultCorpusDir()
		if err != nil {
			fmt.Fprintf(stderr, "ncsw-perf: %v; pass -root\n", err)
			return 2
		}
		o.root = filepath.Dir(corpus)
	}
	var selected []*workload
	for _, name := range strings.Split(*list, ",") {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(stderr, "ncsw-perf: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		if _, err := w.load(o); err != nil {
			fmt.Fprintf(stderr, "ncsw-perf: %s: %v\n", name, err)
			return 2
		}
		selected = append(selected, w)
	}

	if *child != "" {
		if len(selected) != 1 || (*child != "rep" && *child != "traced") {
			fmt.Fprintf(stderr, "ncsw-perf: -child rep|traced runs exactly one workload\n")
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(runRep(selected[0], o, *child == "traced")); err != nil {
			fmt.Fprintf(stderr, "ncsw-perf: %v\n", err)
			return 1
		}
		return 0
	}

	seedNote := "pinned seeds"
	if o.seed != 0 {
		seedNote = fmt.Sprintf("seed %d", o.seed)
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "ncsw-perf: %s; %d untraced repetition(s) per workload, each in a fresh process\n", seedNote, *reps)
	}
	var results []*result
	for _, w := range selected {
		res := measure(w, o, *reps, *trace == 1)
		results = append(results, res)
		if !*asJSON {
			printResult(stdout, w, o, res)
		}
	}
	if *asJSON {
		if err := json.NewEncoder(stdout).Encode(map[string]any{"seed": o.seed, "workloads": results}); err != nil {
			fmt.Fprintf(stderr, "ncsw-perf: %v\n", err)
			return 1
		}
	}
	if *spans != "" {
		all := map[string][]span{}
		for _, res := range results {
			all[res.Workload] = res.Spans
		}
		data, err := json.Marshal(all)
		if err == nil {
			err = os.WriteFile(*spans, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ncsw-perf: spans: %v\n", err)
			return 1
		}
	}
	line := summaryLine(results, *trace == 1)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "ncsw-perf: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// stat summarizes one host metric over the untraced repetitions.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// result is the outcome of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest"`
	// Host holds the end-to-end host metrics, times rescaled to the
	// reference speed; Measured the times as measured; Reference the
	// reference time taken before each repetition.
	Host      map[string]stat    `json:"end_to_end"`
	Measured  map[string]stat    `json:"as_measured"`
	Reference stat               `json:"reference_s"`
	Sim       map[string]float64 `json:"simulated,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Spans     []span             `json:"-"`
}

func summarize(vals []float64, unit string) stat {
	q1, med, q3 := quartiles(vals)
	return stat{Median: med, Q1: q1, Q3: q3, N: len(vals), Unit: unit}
}

// isHostTime reports whether the named metric is a host time (simulated
// times are in ms).
func isHostTime(name string) bool {
	u := unitOf(name)
	return u == "s" || u == "us"
}

// scale returns the factor that takes a repetition's value of the named
// metric to the reference speed: refNominal over the reference time
// for host times, 1 for everything else.
func (rr repResult) scale(name string) float64 {
	if isHostTime(name) && rr.RefS > 0 {
		return refNominal / rr.RefS
	}
	return 1
}

// measure runs a workload's reps untraced repetitions, then its traced
// run, each in a fresh child process, one at a time; and checks every
// run against the first.
func measure(w *workload, o options, reps int, traced bool) *result {
	var runs []repResult
	for range reps {
		runs = append(runs, o.child(w.name, false))
	}
	untraced := len(runs)
	if traced {
		runs = append(runs, o.child(w.name, true))
	}

	res := &result{
		Workload: w.name, Attempted: len(runs), Digest: runs[0].Digest, Sim: runs[0].Sim,
		Host: map[string]stat{}, Measured: map[string]stat{},
	}
	for i, rr := range runs {
		problems := rr.Failures
		if rr.Digest != res.Digest {
			problems = append(problems, fmt.Sprintf("report digest %.12s differs from the first run's %.12s", rr.Digest, res.Digest))
		}
		if !reflect.DeepEqual(rr.Sim, res.Sim) {
			problems = append(problems, "simulated metrics differ from the first run's")
		}
		if i == untraced {
			if err := checkSpans(rr.Spans); err != nil {
				problems = append(problems, err.Error())
			}
		}
		if len(problems) > 0 {
			res.Failed++
			label := fmt.Sprintf("run %d", i+1)
			if i == untraced {
				label = "traced run"
			}
			for _, p := range problems {
				res.Failures = append(res.Failures, label+": "+p)
			}
		}
	}
	var refs []float64
	for _, rr := range runs[:untraced] {
		if rr.Host != nil {
			refs = append(refs, rr.RefS)
		}
	}
	if len(refs) == 0 {
		return res
	}
	res.Reference = summarize(refs, "s")
	for _, name := range hostMetrics {
		var vals, measured []float64
		for _, rr := range runs[:untraced] {
			if v, ok := rr.Host[name]; ok {
				vals = append(vals, v*rr.scale(name))
				measured = append(measured, v)
			}
		}
		res.Host[name] = summarize(vals, unitOf(name))
		if isHostTime(name) {
			res.Measured[name] = summarize(measured, unitOf(name))
		}
	}
	if !traced || runs[untraced].Layers == nil {
		return res
	}
	tr := runs[untraced]
	res.Layers, res.Spans = tr.Layers, tr.Spans
	for name, v := range res.Layers {
		res.Layers[name] = v * tr.scale(name)
	}
	res.Layers["trace_overhead_pct"] = (tr.Host["wall_s"]*tr.scale("wall_s")/res.Host["wall_s"].Median - 1) * 100
	return res
}

// child runs one repetition in a fresh process of this executable and
// waits for it to exit. A process that fails reports a failed
// repetition.
func (o options) child(workload string, traced bool) repResult {
	mode := "rep"
	if traced {
		mode = "traced"
	}
	exe, err := os.Executable()
	if err != nil {
		return repResult{Failures: []string{err.Error()}}
	}
	args := []string{"-child", mode, "-workload", workload, "-root", o.root, "-seed", strconv.FormatUint(o.seed, 10)}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rr repResult
	if err == nil {
		err = json.Unmarshal(out, &rr)
	}
	if err != nil {
		return repResult{Failures: []string{fmt.Sprintf("child process: %v", err)}}
	}
	return rr
}

// quartiles returns the first quartile, median and third quartile of
// vals by the method of Python's statistics.quantiles(n=4) (the
// default, exclusive one); a single value is all three.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printResult(out io.Writer, w *workload, o options, res *result) {
	fmt.Fprintf(out, "\n== %s ==\n", w.name)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tunit\tmedian\tq1\tq3\tn\tas measured\n")
	for _, name := range hostMetrics {
		if s, ok := res.Host[name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\t%d", name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
			if m, ok := res.Measured[name]; ok {
				fmt.Fprintf(tw, "\t%.4f", m.Median)
			}
			fmt.Fprintf(tw, "\n")
		}
	}
	fmt.Fprintf(tw, "fail_pct\t%%\t%.1f\t\t\t%d\n", 100*float64(res.Failed)/float64(res.Attempted), res.Attempted)
	for _, name := range sortedKeys(res.Sim) {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t(identical in every run)\n", name, unitOf(name), res.Sim[name])
	}
	tw.Flush()
	fmt.Fprintf(out, "host times rescaled to a %.0f ms reference; it took %.1f ms (median) before these runs\n",
		refNominal*1e3, res.Reference.Median*1e3)
	switch {
	case w.sim:
	case o.seed == 0:
		fmt.Fprintf(out, "simulated outputs: every session equals its scenarios/golden/ file\n")
	default:
		fmt.Fprintf(out, "simulated outputs: goldens hold only at the pinned seeds; checked for determinism and conservation\n")
	}
	fmt.Fprintf(out, "report digest: sha256:%s\n", res.Digest)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "FAIL %s\n", f)
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(out, "per-layer, traced run (self time of the benchmark's calls into each layer; parse and serve split are outside estimates):\n")
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, name := range sortedKeys(res.Layers) {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\n", name, unitOf(name), res.Layers[name])
	}
	tw.Flush()
}

// metricValue is one metric of the summary line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of the output: the end-to-end medians, or
// with tracing the listed per-layer metrics, named as BENCHMARK.json
// names them (prefixed by the workload when several ran).
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func summaryLine(results []*result, traced bool) summary {
	line := summary{Metrics: map[string]metricValue{}}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = res.Workload + "."
		}
		if traced {
			for _, name := range listedLayers {
				if v, ok := res.Layers[name]; ok {
					line.Metrics[prefix+name] = metricValue{v, unitOf(name)}
				}
			}
			continue
		}
		for _, name := range hostMetrics {
			if s, ok := res.Host[name]; ok {
				line.Metrics[prefix+name] = metricValue{s.Median, s.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	return line
}
