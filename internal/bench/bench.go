// Package bench regenerates every table and figure of the paper's
// evaluation (§IV–§V): one generator per artefact, each returning a
// Table whose rows carry both the measured values from this
// reproduction and the paper's reported numbers side by side. The
// cmd/ncsw-bench binary and the repository's top-level benchmarks are
// thin wrappers over this package.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/graphfile"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Config scales the experiments. The defaults reproduce the paper's
// full workload; tests and quick runs shrink the image counts.
type Config struct {
	// ImagesPerSubset is the per-subset size for the performance
	// experiments (the paper uses 10 000).
	ImagesPerSubset int
	// Subsets is the number of validation subsets (the paper uses 5).
	Subsets int
	// FunctionalImagesPerSubset is the per-subset size for the
	// accuracy experiments (Fig. 7), which execute real arithmetic and
	// are far more expensive per image.
	FunctionalImagesPerSubset int
	// Seed drives every random stream.
	Seed uint64
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		ImagesPerSubset:           10000,
		Subsets:                   5,
		FunctionalImagesPerSubset: 10000,
		Seed:                      1,
	}
}

// QuickConfig returns a configuration sized for CI runs: same
// structure, two orders of magnitude fewer images.
func QuickConfig() Config {
	return Config{
		ImagesPerSubset:           400,
		Subsets:                   5,
		FunctionalImagesPerSubset: 200,
		Seed:                      1,
	}
}

func (c Config) validate() error {
	if c.ImagesPerSubset < 1 || c.FunctionalImagesPerSubset < 1 {
		return fmt.Errorf("bench: non-positive image counts in %+v", c)
	}
	if c.Subsets < 1 {
		return fmt.Errorf("bench: need at least one subset")
	}
	return nil
}

// Table is one regenerated artefact.
type Table struct {
	ID      string // "fig6a", "fig7b", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; it panics on column-count mismatch
// so generators cannot silently produce ragged tables.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: table %s row has %d cells, want %d", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders an aligned plain-text table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub markdown (for EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Harness caches the expensive shared artefacts (the GoogLeNet graph,
// its compiled blob, the micro network) across experiments.
type Harness struct {
	cfg  Config
	goog *nn.Graph
	blob *graphfile.Handle
	// probes memoizes the deterministic closed-loop capacity probes
	// shared across experiments (see capacity).
	probes map[string]probe
	// fig7Subsets memoizes the FP32-vs-FP16 comparison Fig7a, Fig7b
	// and Summary share (see fig7).
	fig7Subsets []fig7Subset
}

// NewHarness validates cfg and builds the shared artefacts.
func NewHarness(cfg Config) (*Harness, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	goog := nn.NewGoogLeNet(rng.New(cfg.Seed).Derive("googlenet-weights"))
	blob, err := graphfile.CompileHandle(goog)
	if err != nil {
		return nil, err
	}
	return &Harness{cfg: cfg, goog: goog, blob: blob}, nil
}

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// GoogLeNet returns the cached full-size network.
func (h *Harness) GoogLeNet() *nn.Graph { return h.goog }

// experiments registers the regenerable artefacts in paper order: the
// paper's figures, the headline summary, then the beyond-the-paper
// studies. An entry's points, when set, returns the machine-readable
// points its table is rendered from (the BENCH_PR*.json format).
var experiments = []struct {
	id     string
	run    func(*Harness) (*Table, error)
	points func(*Harness) (any, error)
}{
	{"fig6a", (*Harness).Fig6a, nil},
	{"fig6b", (*Harness).Fig6b, nil},
	{"fig7a", (*Harness).Fig7a, nil},
	{"fig7b", (*Harness).Fig7b, nil},
	{"fig8a", (*Harness).Fig8a, nil},
	{"fig8b", (*Harness).Fig8b, nil},
	{"summary", (*Harness).Summary, nil},
	{"ablation", (*Harness).Ablation, nil},
	{"precision", func(h *Harness) (*Table, error) { return h.PrecisionAblation(precisionImages(h.cfg)) }, nil},
	{"gemm", (*Harness).GEMMStudy, nil},
	{"serving", (*Harness).Serving, points((*Harness).ServingPoints)},
	{"slo", (*Harness).SLO, points((*Harness).SLOPoints)},
	{"resilience", (*Harness).Resilience, points((*Harness).ResiliencePoints)},
	{"hedge", (*Harness).Hedge, points((*Harness).HedgePoints)},
	{"kernel", (*Harness).Kernel, points((*Harness).KernelPoints)},
	{"split", (*Harness).Split, points((*Harness).SplitPoints)},
	{"tenants", (*Harness).Tenants, points((*Harness).TenantPoints)},
	{"scenarios", (*Harness).Scenarios, points((*Harness).ScenarioPoints)},
}

// points adapts a typed <X>Points method to the registry's points
// field.
func points[T any](f func(*Harness) ([]T, error)) func(*Harness) (any, error) {
	return func(h *Harness) (any, error) { return f(h) }
}

// All runs every experiment in paper order.
func (h *Harness) All() ([]*Table, error) {
	var out []*Table
	for _, e := range experiments {
		t, err := e.run(h)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Experiment runs one experiment by table ID.
func (h *Harness) Experiment(id string) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(h)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ExperimentIDs())
}

// Points runs one experiment by ID and returns its machine-readable
// points: the slice its <X>Points method returns (e.g. []SLOPoint for
// "slo"). An unknown or table-only ID is an error naming the IDs that
// have points.
func (h *Harness) Points(id string) (any, error) {
	var have []string
	for _, e := range experiments {
		if e.points == nil {
			continue
		}
		if e.id == id {
			return e.points(h)
		}
		have = append(have, e.id)
	}
	return nil, fmt.Errorf("bench: experiment %q has no points (have %v)", id, have)
}

// precisionImages bounds the precision ablation: its FP16-accumulate
// pass emulates per-element rounding in software and costs ~25 ms per
// image on one thread (the pass runs in parallel, as Forward splits
// each batch across GOMAXPROCS), so paper-scale configs cap it at 2000
// images (the ablation compares error-rate deltas of several percent,
// for which 2000 samples give ±1% resolution).
func precisionImages(cfg Config) int {
	const cap = 2000
	if cfg.FunctionalImagesPerSubset > cap {
		return cap
	}
	return cfg.FunctionalImagesPerSubset
}

// ExperimentIDs lists the available artefacts: the paper's figures in
// order, the headline summary, and the beyond-the-paper studies.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
