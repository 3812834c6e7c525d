package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// servingScenarios holds the two serving workloads, cpu-gpu-serve.json
// and vpu8-hedged.json.
//
//go:embed workloads/*.json
var servingScenarios embed.FS

// functionalConfig is the accuracy workload of the paper's Fig. 7: the
// micro-GoogLeNet with real arithmetic on a 4-stick VPU group (fp16
// weights from the compiled graph file) beside a CPU batch-8 group
// (fp32), sharing one closed-loop source through work stealing. It is
// Go, not a scenario, because the scenario format has no functional mode.
func functionalConfig() pipeline.Config {
	return pipeline.Config{
		Functional: true,
		Network:    pipeline.NetMicro,
		Images:     600,
		Seed:       1,
		Routing:    core.RouteWorkStealing,
		Groups: []pipeline.Group{
			{Kind: pipeline.GroupVPU, Devices: 4},
			{Kind: pipeline.GroupCPU, Batch: 8},
		},
	}
}

// session is one pipeline session of a repetition: a scenario document
// or a Go-defined configuration.
type session struct {
	name string
	// file labels scenario errors; data is the scenario JSON (nil for a
	// Go-defined session, which uses cfg).
	file string
	data []byte
	cfg  pipeline.Config
	// images, when positive, overrides the declared image count (the
	// test scale).
	images int
	// golden is the expected rendering ("" when not checked: only the
	// corpus at its pinned seeds has goldens).
	golden string
}

// workload is one named benchmark input.
type workload struct {
	name string
	// sim is false for the corpus: its simulated outputs are checked
	// byte for byte against the goldens instead of being reported.
	sim  bool
	load func(o options) ([]session, error)
}

// pin names a committed input file and the sha256 it must have.
type pin struct{ file, sha256 string }

// corpusPins are the seven committed scenarios the corpus workload
// replays. A file whose hash drifts stops the benchmark: the workload
// would no longer be the one earlier measurements ran.
var corpusPins = []pin{
	{"cascade-recovery.json", "0e65d26a0ee297be6d4dcb0a60e8a8c30b973b8516c7e78feae8a885d0c6e8af"},
	{"degraded-usb-day.json", "5137ea6a2afb18ef1356a3dc5db1fe5152b108005206aeb5f25c61da343a27a6"},
	{"diurnal-load.json", "9f7fd04cd5349ae74730630833676e3099cf6c1cf8f42e30b4341b47a12ce841"},
	{"flash-crowd.json", "a4f9eb96fda33063f6dbf2267715da1c14231f7e5ccfb068e30fca6b13534128"},
	{"hetero-fleet.json", "28432215c36cd9765b5d440ff06dbb418d9ac8ea4b868690b59effc260515438"},
	{"slo-bounded.json", "01bef8e47fbf4e1b1deb75648f1ee85da6a154e947623c5bae8d87e8c2de2b4d"},
	{"split-under-load.json", "cbd65de44d70fc868fefff8f656ec39aa2b0b619439712748f6a103b6a4646c6"},
}

// quickCorpus is the one corpus file the test scale replays.
const quickCorpus = "slo-bounded.json"

// workloadTable lists the workloads in run order. Why each was chosen,
// and which layer it stresses, is in README.md and BENCHMARK.json.
var workloadTable = []*workload{
	{name: "corpus", load: loadCorpus},
	{name: "cpu-gpu-serve", sim: true, load: loadServing("cpu-gpu-serve", 3000)},
	{name: "vpu8-hedged", sim: true, load: loadServing("vpu8-hedged", 400)},
	{name: "functional", sim: true, load: loadFunctional},
}

func findWorkload(name string) *workload {
	for _, w := range workloadTable {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

// loadCorpus reads the pinned corpus files (and, at the pinned seeds,
// their goldens) from the repository's scenarios/ directory.
func loadCorpus(o options) ([]session, error) {
	dir := filepath.Join(o.root, "scenarios")
	var out []session
	for _, p := range corpusPins {
		if o.quick && p.file != quickCorpus {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, p.file))
		if err != nil {
			return nil, fmt.Errorf("corpus input: %w", err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != p.sha256 {
			return nil, fmt.Errorf("corpus input scenarios/%s drifted: sha256 %x, pinned %s", p.file, sum, p.sha256)
		}
		s := session{name: strings.TrimSuffix(p.file, ".json"), file: p.file, data: data}
		if o.seed == 0 {
			golden, err := os.ReadFile(filepath.Join(dir, "golden", s.name+".golden"))
			if err != nil {
				return nil, fmt.Errorf("corpus golden: %w", err)
			}
			s.golden = string(golden)
		}
		out = append(out, s)
	}
	return out, nil
}

// loadServing returns the loader of an embedded serving scenario;
// quickImages is its image count at the test scale.
func loadServing(name string, quickImages int) func(options) ([]session, error) {
	return func(o options) ([]session, error) {
		file := name + ".json"
		data, err := servingScenarios.ReadFile("workloads/" + file)
		if err != nil {
			return nil, err
		}
		s := session{name: name, file: file, data: data}
		if o.quick {
			s.images = quickImages
		}
		return []session{s}, nil
	}
}

func loadFunctional(o options) ([]session, error) {
	s := session{name: "functional", cfg: functionalConfig()}
	if o.quick {
		s.images = 40
	}
	return []session{s}, nil
}

// unitOf derives a metric's unit from its name suffix, so every name
// the benchmark emits carries its unit by construction.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "img_per_w"):
		return "img/s/W"
	case strings.HasSuffix(name, "img_per_s"):
		return "img/s"
	case strings.HasSuffix(name, "_us_per_item"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}

// hostMetrics are the end-to-end host metrics, in report order; they
// are the end_to_end metrics of BENCHMARK.json.
var hostMetrics = []string{"setup_s", "run_s", "wall_s", "alloc_mb", "heap_live_mb"}

// listedLayers are the per-layer metrics BENCHMARK.json names: every
// workload emits them. Layer times that are structurally zero on some
// workload (graph-file work without a VPU, scenario compile for the
// Go-defined session) and simulated times are printed and written by
// -json but left out of this list; pipeline.run_s minus
// pipeline.serve_s recovers graphfile.parse_s.
var listedLayers = []string{
	"nn.build_s", "nn.builds", "nn.build_alloc_mb",
	"graphfile.compiles", "graphfile.blob_mb", "graphfile.compile_alloc_mb",
	"graphfile.parses", "graphfile.parse_alloc_mb",
	"pipeline.build_s",
	"pipeline.run_s", "pipeline.run_alloc_mb", "pipeline.run_gc",
	"pipeline.serve_s", "pipeline.host_us_per_item",
	"pipeline.heap_live_mb", "pipeline.report_s",
	"core.shed", "core.expired", "core.hedges", "core.hedge_win_pct", "core.retries",
	"fault.injected", "ncs.outages",
	"trace_overhead_pct",
}
