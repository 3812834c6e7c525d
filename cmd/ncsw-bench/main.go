// Command ncsw-bench regenerates the paper's evaluation artefacts:
// every figure of §IV–§V, the headline-claim summary, and the two
// beyond-the-paper ablations. Output is a paper-vs-measured table per
// artefact. It drives the public repro facade end to end.
//
// Usage:
//
//	ncsw-bench                         # quick scale, all experiments
//	ncsw-bench -full                   # paper scale (50 000 images)
//	ncsw-bench -experiment fig6a       # one artefact
//	ncsw-bench -experiment slo,hedge   # several, in the order given
//	ncsw-bench -markdown > tables.md   # EXPERIMENTS.md fragments
//	ncsw-bench -hetero                 # device-group session demo
//	ncsw-bench -experiment serving     # tail latency vs offered load
//	ncsw-bench -experiment slo         # adaptive batching + admission vs baseline
//	ncsw-bench -experiment resilience  # goodput under injected faults, recovery vs fail-stop
//	ncsw-bench -experiment hedge       # p99/goodput vs hedge trigger, with and without faults
//	ncsw-bench -experiment kernel      # simulation-kernel microbenchmarks vs pre-rewrite baseline
//	ncsw-bench -experiment split       # split inference: throughput vs partition point
//	ncsw-bench -experiment tenants     # multi-tenant isolation: per-tenant goodput vs admission scheduler
//	ncsw-bench -experiment slo -json   # one experiment's points as JSON (BENCH_PR3.json)
//	ncsw-bench -scenario scenarios/    # replay every declarative scenario in a directory
//	ncsw-bench -scenario f.json        # replay one scenario file
//	ncsw-bench -scenario scenarios/ -json  # machine-readable scenario points (BENCH_PR10.json)
//	ncsw-bench -cpuprofile cpu.pprof   # write a CPU profile of the run (any mode)
//	ncsw-bench -memprofile mem.pprof   # write an allocation profile at exit (any mode)
//
// -json works for every experiment with points: serving, slo,
// resilience, hedge, kernel, split, tenants and scenarios; each
// committed BENCH_PR*.json snapshot is one such emission. A flag the
// chosen mode ignores is an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ncsw-bench:", err)
		os.Exit(1)
	}
}

// run parses args and runs the chosen mode, writing tables or JSON to
// stdout and progress lines to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("ncsw-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all",
		"comma-separated experiments to run: all, "+strings.Join(repro.ExperimentIDs(), ", "))
	full := fs.Bool("full", false, "paper-scale workload (10000 images per subset)")
	images := fs.Int("images", 0, "override images per subset for performance runs")
	funcImages := fs.Int("functional-images", 0, "override images per subset for accuracy runs")
	subsets := fs.Int("subsets", 0, "override subset count")
	markdown := fs.Bool("markdown", false, "emit GitHub markdown instead of aligned text")
	hetero := fs.Bool("hetero", false,
		"run the heterogeneous device-group session (CPU + GPU + 4 VPUs) instead of the figures")
	scenarioPath := fs.String("scenario", "",
		"replay the declarative scenario(s) in this file or directory (each pins its own scale; -json for machine-readable points)")
	jsonOut := fs.Bool("json", false,
		"with -experiment <id> or -scenario: emit the points as JSON (the BENCH_PR*.json format)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	// Each of these modes reads only some flags; setting another is
	// an error rather than a silent no-op.
	var mode string
	var reads []string
	switch {
	case *scenarioPath != "":
		mode, reads = "-scenario", []string{"scenario", "json"}
	case *hetero:
		mode, reads = "-hetero", []string{"hetero", "images"}
	case *jsonOut:
		mode, reads = "-json", []string{"json", "experiment", "full", "images", "functional-images", "subsets"}
	}
	if mode != "" {
		reads = append(reads, "cpuprofile", "memprofile")
		fs.Visit(func(f *flag.Flag) {
			if err == nil && !slices.Contains(reads, f.Name) {
				err = fmt.Errorf("%s ignores -%s", mode, f.Name)
			}
		})
		if err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if merr := writeHeapProfile(*memProfile); err == nil {
				err = merr
			}
		}()
	}

	if *scenarioPath != "" {
		return runScenarios(*scenarioPath, *jsonOut, stdout, stderr)
	}
	if *hetero {
		n := *images
		if n == 0 {
			n = 400
		}
		return runHetero(n, stdout, stderr)
	}

	cfg := repro.QuickBenchConfig()
	if *full {
		cfg = repro.DefaultBenchConfig()
	}
	if *images > 0 {
		cfg.ImagesPerSubset = *images
	}
	if *funcImages > 0 {
		cfg.FunctionalImagesPerSubset = *funcImages
	}
	if *subsets > 0 {
		cfg.Subsets = *subsets
	}

	h, err := repro.NewBenchmarks(cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		points, err := h.Points(*experiment)
		if err != nil {
			return err
		}
		return emitJSON(stdout, *experiment, points)
	}

	ids := repro.ExperimentIDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := h.Experiment(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		if *markdown {
			fmt.Fprint(stdout, tbl.Markdown())
		} else {
			fmt.Fprintln(stdout, tbl.String())
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", tbl.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeHeapProfile writes an allocation profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // surface live heap accurately
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitJSON writes one experiment's points in the BENCH_PR*.json
// format: {"experiment": id, "points": [...]}, indented.
func emitJSON(w io.Writer, id string, points any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string `json:"experiment"`
		Points     any    `json:"points"`
	}{Experiment: id, Points: points})
}

// runScenarios replays the declarative scenario(s) at path — one
// file, or every *.json in a directory — printing each report (or,
// with -json, the points in the BENCH_PR*.json format). Scenario
// files pin their own scale and seeds, so the run is bit-reproducible
// regardless of the harness flags.
func runScenarios(path string, jsonOut bool, stdout, stderr io.Writer) error {
	scs, err := repro.LoadScenarios(path)
	if err != nil {
		return err
	}
	points := make([]any, 0, len(scs))
	for _, sc := range scs {
		start := time.Now()
		res, err := sc.Run()
		if err != nil {
			return err
		}
		points = append(points, res.Point())
		if !jsonOut {
			fmt.Fprintln(stdout, res.String())
			fmt.Fprintf(stderr, "[scenario %s done in %v]\n", res.Scenario.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	if jsonOut {
		return emitJSON(stdout, "scenarios", points)
	}
	return nil
}

// runHetero demonstrates §III's device groups beyond the paper's
// figures: one dataset split across every device family at once,
// under each routing policy.
func runHetero(images int, stdout, stderr io.Writer) error {
	fmt.Fprintf(stdout, "heterogeneous device groups: CPU + GPU + 4 VPUs over %d images\n\n", images)
	net := repro.NewGoogLeNet(repro.Seed(42))
	blob, err := repro.CompileGraph(net)
	if err != nil {
		return err
	}
	for _, route := range []repro.Routing{
		repro.StaticSplit, repro.RoundRobinSplit, repro.WorkStealing, repro.WeightedByThroughput,
	} {
		sess, err := repro.NewSession(repro.SessionConfig{
			Images: images,
			Groups: []repro.DeviceGroup{
				{Kind: repro.CPUGroup, Batch: 8},
				{Kind: repro.GPUGroup, Batch: 8},
				{Kind: repro.VPUGroup, Devices: 4},
			},
			Net:     net,
			Blob:    blob,
			Routing: route,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		report, err := sess.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "── routing: %v ──\n%s\n", route, report)
		fmt.Fprintf(stderr, "[%v done in %v]\n", route, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
