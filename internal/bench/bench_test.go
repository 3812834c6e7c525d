package bench

import (
	"strconv"
	"strings"
	"testing"
)

// quickHarness caches one harness across the package tests (GoogLeNet
// construction and graph compilation cost ~1 s).
var quickHarness *Harness

func harness(t testing.TB) *Harness {
	t.Helper()
	if quickHarness == nil {
		h, err := NewHarness(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		quickHarness = h
	}
	return quickHarness
}

// cell parses a leading float out of a table cell like "77.8 ±1.3" or
// "44.1 (paper 44.0)".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	fields := strings.Fields(strings.TrimSuffix(s, "%"))
	if len(fields) == 0 {
		t.Fatalf("empty cell %q", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(fields[0], "x"), "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// skipHeavy skips a full experiment re-run under -short: the race CI
// job runs the suite with -short (race-instrumented experiment runs
// take minutes each and exercise no concurrency the core and pipeline
// suites do not), while the regular test job still runs everything.
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
}

// findRow locates a row by its first column.
func findRow(t *testing.T, tbl *Table, key string) []string {
	t.Helper()
	for _, row := range tbl.Rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("table %s has no row %q", tbl.ID, key)
	return nil
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ImagesPerSubset: 0, Subsets: 5, FunctionalImagesPerSubset: 1},
		{ImagesPerSubset: 1, Subsets: 0, FunctionalImagesPerSubset: 1},
		{ImagesPerSubset: 1, Subsets: 1, FunctionalImagesPerSubset: 0},
	}
	for i, cfg := range bad {
		if _, err := NewHarness(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	if len(tbl.Rows) != 1 {
		t.Error("AddRow failed")
	}
	s := tbl.String()
	if !strings.Contains(s, "x: T") || !strings.Contains(s, "1") {
		t.Errorf("String = %q", s)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown = %q", md)
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged row must panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestExperimentDispatch(t *testing.T) {
	h := harness(t)
	if _, err := h.Experiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	for _, id := range []string{"nope", "fig6a"} {
		if _, err := h.Points(id); err == nil {
			t.Errorf("Points(%q) accepted", id)
		} else if !strings.Contains(err.Error(), "serving") {
			t.Errorf("Points(%q) error %q does not name the IDs with points", id, err)
		}
	}
	ids := ExperimentIDs()
	if len(ids) != 18 {
		t.Errorf("ExperimentIDs = %v", ids)
	}
}

// TestServingShape asserts the serving experiment's qualitative
// content at quick scale: rows for every (config, load) plus capacity
// probes, service time roughly flat across loads, and overload (110%)
// p99 clearly above the 50%-load p99 on every configuration.
func TestServingShape(t *testing.T) {
	skipHeavy(t)
	pts, err := harness(t).ServingPoints()
	if err != nil {
		t.Fatal(err)
	}
	nCfg := len(servingConfigs())
	if want := nCfg * (len(servingLoads) + 1); len(pts) != want {
		t.Fatalf("%d serving points, want %d", len(pts), want)
	}
	p99 := map[string]map[float64]float64{}
	for _, p := range pts {
		if p.LoadFraction == 0 {
			if p.AchievedIPS <= 0 {
				t.Errorf("%s: capacity probe %.2f img/s", p.Device, p.AchievedIPS)
			}
			continue
		}
		if p99[p.Device] == nil {
			p99[p.Device] = map[float64]float64{}
		}
		p99[p.Device][p.LoadFraction] = p.P99MS
		if p.P50MS <= 0 || p.P99MS < p.P95MS || p.P95MS < p.P50MS || p.MaxMS < p.P99MS {
			t.Errorf("%s@%.0f%%: inconsistent quantiles %+v", p.Device, p.LoadFraction*100, p)
		}
		if p.ServiceMeanMS <= 0 {
			t.Errorf("%s@%.0f%%: no service time", p.Device, p.LoadFraction*100)
		}
	}
	for dev, byLoad := range p99 {
		if byLoad[1.1] <= byLoad[0.5] {
			t.Errorf("%s: overload p99 %.1fms not above 50%%-load p99 %.1fms",
				dev, byLoad[1.1], byLoad[0.5])
		}
	}
}

// TestFig6aShape asserts the figure's qualitative content at quick
// scale: VPU ≈ GPU > CPU, all within a loose band of the paper.
func TestFig6aShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != QuickConfig().Subsets+2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	mean := findRow(t, tbl, "mean")
	cpu, gpu, vpu := cell(t, mean[1]), cell(t, mean[2]), cell(t, mean[3])
	if !(vpu > cpu && gpu > cpu) {
		t.Errorf("ordering broken: cpu=%.1f gpu=%.1f vpu=%.1f", cpu, gpu, vpu)
	}
	// Loose bands (quick config still reproduces within a few %).
	if cpu < 40 || cpu > 48 {
		t.Errorf("CPU = %.1f img/s, paper 44.0", cpu)
	}
	if gpu < 69 || gpu > 79 {
		t.Errorf("GPU = %.1f img/s, paper 74.2", gpu)
	}
	if vpu < 72 || vpu > 82 {
		t.Errorf("VPU = %.1f img/s, paper 77.2", vpu)
	}
	// VPU within ~10% of GPU ("similar performance").
	if r := vpu / gpu; r < 0.9 || r > 1.15 {
		t.Errorf("VPU/GPU ratio = %.2f, paper ~1.04", r)
	}
}

// TestFig6bShape asserts the scaling curves: near-ideal for VPUs, weak
// for CPU, intermediate for GPU.
func TestFig6bShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	last := findRow(t, tbl, "8")
	cpuScale, gpuScale, vpuScale := cell(t, last[2]), cell(t, last[4]), cell(t, last[6])
	if cpuScale < 1.05 || cpuScale > 1.25 {
		t.Errorf("CPU scaling at 8 = %.2f, paper 1.1", cpuScale)
	}
	if gpuScale < 1.75 || gpuScale > 2.05 {
		t.Errorf("GPU scaling at 8 = %.2f, paper 1.9", gpuScale)
	}
	if vpuScale < 7.4 || vpuScale > 8.05 {
		t.Errorf("VPU scaling at 8 = %.2f, paper close to 8", vpuScale)
	}
	// Single-input baselines match the paper's measured latencies.
	one := findRow(t, tbl, "1")
	if v := cell(t, one[1]); v < 25 || v > 27 {
		t.Errorf("CPU single-input = %.1f ms, paper 26.0", v)
	}
	if v := cell(t, one[3]); v < 24.9 || v > 26.9 {
		t.Errorf("GPU single-input = %.1f ms, paper 25.9", v)
	}
	if v := cell(t, one[5]); v < 97 || v > 105 {
		t.Errorf("VPU single-input = %.1f ms, paper 100.7", v)
	}
}

// TestFig7Shape asserts the accuracy experiment: ~32% error in both
// precisions with a sub-1% gap, and a small nonzero confidence
// difference.
func TestFig7Shape(t *testing.T) {
	skipHeavy(t)
	h := harness(t)
	a, err := h.Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	mean := findRow(t, a, "mean")
	e32, e16 := cell(t, mean[1]), cell(t, mean[2])
	// 200 images/subset: wide band around 32%.
	if e32 < 25 || e32 > 40 {
		t.Errorf("FP32 error = %.1f%%, paper 32.01%%", e32)
	}
	if e16 < 25 || e16 > 40 {
		t.Errorf("FP16 error = %.1f%%, paper 31.92%%", e16)
	}
	if d := e32 - e16; d < -1.5 || d > 1.5 {
		t.Errorf("error gap = %.2f%%, paper 0.09%%", d)
	}

	b, err := h.Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	bm := findRow(t, b, "mean")
	diff := cell(t, bm[1])
	if diff <= 1e-4 || diff >= 2e-2 {
		t.Errorf("confidence diff = %.2e, paper 4.4e-3", diff)
	}
}

// TestFig8aShape asserts the power story: VPU img/W several times the
// CPU/GPU values at every batch size.
func TestFig8aShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"1", "2", "4", "8"} {
		row := findRow(t, tbl, b)
		cpu, gpu, vpu := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if vpu < 3*gpu {
			t.Errorf("batch %s: VPU %.2f img/W not >3x GPU %.2f", b, vpu, gpu)
		}
		if vpu < 3*cpu {
			t.Errorf("batch %s: VPU %.2f img/W not >3x CPU %.2f", b, vpu, cpu)
		}
	}
	row1 := findRow(t, tbl, "1")
	if v := cell(t, row1[3]); v < 3.8 || v > 4.1 {
		t.Errorf("VPU img/W at 1 = %.2f, paper 3.97", v)
	}
}

// TestFig8bShape asserts the projection: VPU beats both baselines at
// 16 by roughly the paper's factors, and the simulated 16-stick run
// confirms the linear projection.
func TestFig8bShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Fig8b()
	if err != nil {
		t.Fatal(err)
	}
	last := findRow(t, tbl, "16")
	cpu, gpu, vpu := cell(t, last[1]), cell(t, last[2]), cell(t, last[3])
	if last[4] != "projected" {
		t.Errorf("VPU@16 mode = %q", last[4])
	}
	if r := vpu / cpu; r < 3.0 || r > 3.9 {
		t.Errorf("VPU/CPU at 16 = %.2f, paper 3.4", r)
	}
	if r := vpu / gpu; r < 1.7 || r > 2.1 {
		t.Errorf("VPU/GPU at 16 = %.2f, paper 1.9", r)
	}
	if cpu < 42 || cpu > 47 {
		t.Errorf("CPU at 16 = %.1f, paper 44.5", cpu)
	}
	if gpu < 76 || gpu > 84 {
		t.Errorf("GPU at 16 = %.1f, paper 79.9", gpu)
	}
	if vpu < 145 || vpu > 162 {
		t.Errorf("VPU at 16 = %.1f, paper 153.0", vpu)
	}
}

func TestSummaryShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("summary rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] == "" || row[2] == "" {
			t.Errorf("row %q has empty cells", row[0])
		}
	}
}

func TestAblationShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, findRow(t, tbl, "baseline (paper-faithful)")[1])
	overlap := cell(t, findRow(t, tbl, "overlap (2 in flight per stick)")[1])
	fifo1 := cell(t, findRow(t, tbl, "overlap + FIFO depth 1")[1])
	direct := cell(t, findRow(t, tbl, "all sticks on direct ports")[1])
	free := cell(t, findRow(t, tbl, "zero host thread overhead")[1])
	dyn := cell(t, findRow(t, tbl, "dynamic scheduling")[1])

	if overlap <= base {
		t.Errorf("overlap (%.1f) should beat baseline (%.1f)", overlap, base)
	}
	// FIFO depth 1 keeps the gain: execution dequeues its job, so one
	// slot still double-buffers the next input.
	if r := fifo1 / overlap; r < 0.98 || r > 1.02 {
		t.Errorf("FIFO depth 1 (%.1f) should match overlap depth 2 (%.1f)", fifo1, overlap)
	}
	if direct < base*0.999 {
		t.Errorf("direct ports (%.1f) should not be slower than hubs (%.1f)", direct, base)
	}
	if free <= base {
		t.Errorf("free host ops (%.1f) should beat baseline (%.1f)", free, base)
	}
	// Uniform workload: dynamic ≈ round robin.
	if r := dyn / base; r < 0.97 || r > 1.03 {
		t.Errorf("dynamic/static ratio = %.3f, expected ~1 on uniform work", r)
	}
}

func TestPrecisionAblationShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).PrecisionAblation(150)
	if err != nil {
		t.Fatal(err)
	}
	fp32 := cell(t, tbl.Rows[0][1])
	fp16 := cell(t, tbl.Rows[1][1])
	strict := cell(t, tbl.Rows[2][1])
	if d := fp16 - fp32; d < -3 || d > 3 {
		t.Errorf("FP32-acc FP16 error gap = %.2f%%, should be small", d)
	}
	if strict <= fp16 {
		t.Errorf("FP16-accumulate (%.2f%%) should degrade error vs FP32-accumulate (%.2f%%)", strict, fp16)
	}
	if _, err := harness(t).PrecisionAblation(0); err == nil {
		t.Error("zero images accepted")
	}
}

func TestCalibrateNoiseValidation(t *testing.T) {
	if _, _, err := CalibrateNoise(0, 1000, 4); err == nil {
		t.Error("target 0 accepted")
	}
	if _, _, err := CalibrateNoise(1.5, 1000, 4); err == nil {
		t.Error("target > 1 accepted")
	}
	if _, _, err := CalibrateNoise(0.3, 10, 4); err == nil {
		t.Error("tiny sample accepted")
	}
}

// TestMeasureErrorAtCalibratedSigma verifies the shipped calibration
// constant still lands near 32% (regression guard for any change to
// the network, dataset or numerics).
func TestMeasureErrorAtCalibratedSigma(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check skipped in -short")
	}
	got, err := MeasureErrorAt(19.48, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.29 || got > 0.35 {
		t.Errorf("error at calibrated sigma = %.3f, want ~0.32", got)
	}
}

// TestAccuracyTinyDatasets checks that the accuracy experiments with a
// dataset of their own accept fewer images than the default five
// subsets: their dataset is one subset.
func TestAccuracyTinyDatasets(t *testing.T) {
	if _, err := MeasureErrorAt(19.48, 3); err != nil {
		t.Errorf("MeasureErrorAt at 3 images: %v", err)
	}
	if _, err := harness(t).PrecisionAblation(3); err != nil {
		t.Errorf("PrecisionAblation at 3 images: %v", err)
	}
}

func TestGEMMStudyShape(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).GEMMStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The tiny-tile ablation row must be memory-bound and slower than
	// the best fp16 plan; the CPU's Gflops/W must be far below the VPU.
	var badGflops, bestGflops, cpuGpw, vpuGpw float64
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[0], "VPU 1024^3 fp16 (tile 16x16"):
			badGflops = cell(t, row[1])
			if row[3] != "memory" {
				t.Errorf("tiny tiles bound = %s", row[3])
			}
		case strings.HasPrefix(row[0], "VPU 1024^3 fp16 (tile") && !strings.Contains(row[0], "16x16"):
			bestGflops = cell(t, row[1])
			vpuGpw = cell(t, row[2])
		case strings.HasPrefix(row[0], "CPU"):
			cpuGpw = cell(t, row[2])
		}
	}
	if badGflops >= bestGflops {
		t.Errorf("untiled %.1f Gflops should trail tiled %.1f", badGflops, bestGflops)
	}
	if vpuGpw < 20*cpuGpw {
		t.Errorf("VPU %.1f Gflops/W not >20x CPU %.1f", vpuGpw, cpuGpw)
	}
}

func TestAblationThermalRow(t *testing.T) {
	skipHeavy(t)
	tbl, err := harness(t).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, findRow(t, tbl, "baseline (paper-faithful)")[1])
	hot := cell(t, findRow(t, tbl, "hot enclosure (thermal throttling)")[1])
	if hot >= base*0.95 {
		t.Errorf("thermal throttling (%.1f img/s) should visibly reduce throughput (%.1f)", hot, base)
	}
}
