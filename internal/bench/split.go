package bench

import (
	"fmt"
	"time"

	"repro/internal/imagenet"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// splitHeadWindow is the boundary in-flight window used by the cut
// sweep: two tail batches. A window below the tail's batch size
// serializes batch assembly against the head (the tail waits
// (batch-window)/head-rate after every batch run); one extra batch of
// slack lets the next batch assemble while the previous one executes,
// and it dwarfs the head's own concurrency (4 sticks × the 2-deep
// overlap pipeline). The depth sweep below shows the strangle →
// saturate curve.
const splitHeadWindow = 64

// splitDepths is the boundary-window sweep run at the best cut.
var splitDepths = []int{4, 8, 16, 32, 64, 128}

// SplitPoint is one measurement of the split-inference experiment —
// the machine-readable form behind the Split table and the -json CLI
// output. Baselines run whole inferences (single device groups and
// equal-fleet dealt pools); cut points run the same fleet as a
// model-parallel pipeline partitioned at a whole-network layer
// boundary; depth points re-run the best cut under different boundary
// in-flight windows; replicas points re-run the best cut with one
// stage widened into a pool of identical replica groups
// (pipeline.Stage.Replicas).
type SplitPoint struct {
	// Config names the fleet ("gpu-b32", "pool-4vpu+gpu",
	// "split-4vpu+gpu", ...).
	Config string `json:"config"`
	// Kind classifies the point: "baseline", "cut", "depth" or
	// "replicas".
	Kind string `json:"kind"`
	// Cut is the whole-network partition index (-1 for baselines).
	Cut int `json:"cut"`
	// CutLayer is the last layer of the head segment ("-" for
	// baselines).
	CutLayer string `json:"cut_layer"`
	// QueueDepth is the boundary in-flight window (0 for baselines).
	QueueDepth int `json:"queue_depth"`
	// Replicas is the widened stage's replica-group count (0 for
	// every unreplicated point; the Config name says which stage was
	// widened).
	Replicas int `json:"replicas"`
	// ThroughputIPS is the measured steady-state completion rate.
	ThroughputIPS float64 `json:"throughput_img_per_s"`
	// P50MS and P99MS are the per-item latency quantiles in
	// milliseconds.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// splitImages bounds the per-point image count: the sweep runs a full
// session per (cut, tail) pair, so paper-scale configs cap it — the
// sweep compares steady-state throughputs, which stabilize well under
// 2000 images.
func splitImages(cfg Config) int {
	const cap = 2000
	if cfg.ImagesPerSubset > cap {
		return cap
	}
	return cfg.ImagesPerSubset
}

// splitSession runs one split-experiment session and reduces its
// report to a point.
func (h *Harness) splitSession(name string, kind string, cut int, cutLayer string, depth int, cfg pipeline.Config) (SplitPoint, error) {
	cfg.Dataset = imagenet.DefaultConfig()
	cfg.Dataset.Images = splitImages(h.cfg)
	cfg.Seed = rng.New(h.cfg.Seed).Derive("split/" + name).Uint64()
	sess, err := pipeline.NewFromConfig(cfg)
	if err != nil {
		return SplitPoint{}, fmt.Errorf("bench: split %s: %w", name, err)
	}
	rep, err := sess.Run()
	if err != nil {
		return SplitPoint{}, fmt.Errorf("bench: split %s: %w", name, err)
	}
	ms := func(d time.Duration) float64 { return round2(d.Seconds() * 1e3) }
	return SplitPoint{
		Config:        name,
		Kind:          kind,
		Cut:           cut,
		CutLayer:      cutLayer,
		QueueDepth:    depth,
		ThroughputIPS: round2(rep.Throughput),
		P50MS:         ms(rep.Latency.P50),
		P99MS:         ms(rep.Latency.P99),
	}, nil
}

// SplitPoints runs the split-inference experiment: whole-inference
// baselines at equal fleet, a partition-point sweep over every valid
// GoogLeNet cut with a 4-stick VPU head feeding a CPU or GPU tail,
// and a boundary-window sweep at the best GPU-tail cut.
func (h *Harness) SplitPoints() ([]SplitPoint, error) {
	names := h.goog.LayerNames()
	cuts := h.goog.ValidCuts()
	layerAt := func(cut int) string { return names[cut-1] }

	var points []SplitPoint
	cpu := pipeline.Group{Kind: pipeline.GroupCPU, Batch: 32}
	gpu := pipeline.Group{Kind: pipeline.GroupGPU, Batch: 32}
	vpus := pipeline.Group{Kind: pipeline.GroupVPU, Devices: 4}
	baselines := []struct {
		name   string
		groups []pipeline.Group
	}{
		{"cpu-b32", []pipeline.Group{cpu}},
		{"gpu-b32", []pipeline.Group{gpu}},
		{"vpu-4", []pipeline.Group{vpus}},
		{"pool-4vpu+cpu", []pipeline.Group{vpus, cpu}},
		{"pool-4vpu+gpu", []pipeline.Group{vpus, gpu}},
	}
	for _, b := range baselines {
		pt, err := h.splitSession(b.name, "baseline", -1, "-", 0, pipeline.Config{Groups: b.groups})
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}

	head := func(window int) pipeline.Stage {
		st := pipeline.VPUStage(4)
		st.Queue = window
		return st
	}
	tails := []struct {
		name  string
		stage pipeline.Stage
	}{
		{"split-4vpu+cpu", pipeline.CPUStage(32)},
		{"split-4vpu+gpu", pipeline.GPUStage(32)},
	}
	bestCut, bestIPS := -1, 0.0
	for _, cut := range cuts {
		for _, tail := range tails {
			name := fmt.Sprintf("%s@%s", tail.name, layerAt(cut))
			pt, err := h.splitSession(name, "cut", cut, layerAt(cut), splitHeadWindow,
				pipeline.Config{
					Stages: []pipeline.Stage{head(splitHeadWindow), tail.stage},
					Cuts:   []int{cut},
				})
			if err != nil {
				return nil, err
			}
			points = append(points, pt)
			if tail.name == "split-4vpu+gpu" && pt.ThroughputIPS > bestIPS {
				bestCut, bestIPS = cut, pt.ThroughputIPS
			}
		}
	}

	for _, depth := range splitDepths {
		name := fmt.Sprintf("split-4vpu+gpu@%s/w%d", layerAt(bestCut), depth)
		pt, err := h.splitSession(name, "depth", bestCut, layerAt(bestCut), depth,
			pipeline.Config{
				Stages: []pipeline.Stage{head(depth), pipeline.GPUStage(32)},
				Cuts:   []int{bestCut},
			})
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}

	// Stage-parallel replicas at the best cut: widen one stage into a
	// pool of identical replica groups (pipeline.Stage.Replicas) and
	// see what extra hardware at the bottleneck buys over recutting.
	replicaCases := []struct {
		name       string
		head, tail pipeline.Stage
	}{
		{"split-2x4vpu+gpu", head(splitHeadWindow).Replicated(2), pipeline.GPUStage(32)},
		{"split-4vpu+2xgpu", head(splitHeadWindow), pipeline.GPUStage(32).Replicated(2)},
	}
	for _, rc := range replicaCases {
		name := fmt.Sprintf("%s@%s", rc.name, layerAt(bestCut))
		pt, err := h.splitSession(name, "replicas", bestCut, layerAt(bestCut), splitHeadWindow,
			pipeline.Config{
				Stages: []pipeline.Stage{rc.head, rc.tail},
				Cuts:   []int{bestCut},
			})
		if err != nil {
			return nil, err
		}
		pt.Replicas = 2
		points = append(points, pt)
	}
	return points, nil
}

// Split renders the split-inference experiment as a table: throughput
// and tail latency per partition point against the whole-inference
// baselines, with the winning cut called out.
func (h *Harness) Split() (*Table, error) {
	points, err := h.SplitPoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "split",
		Title: "Split inference: throughput vs partition point (4-VPU head + batch tail)",
		Columns: []string{
			"config", "cut", "cut layer", "window", "rep", "img/s", "p50 ms", "p99 ms",
		},
		Notes: []string{
			fmt.Sprintf("images per point: %d; closed-loop drain per session", splitImages(h.cfg)),
			"baselines run whole inferences; split rows run the same devices as a two-stage pipeline",
			"window is the boundary in-flight bound between head and tail (credit-based backpressure)",
			"replicas rows widen one stage of the best cut into a pool of identical replica groups (extra hardware at the bottleneck, same partition)",
		},
	}
	bestBase, bestBaseName := 0.0, ""
	bestSplit, bestSplitName := 0.0, ""
	for _, p := range points {
		cut, layer, window, rep := "-", p.CutLayer, "-", "-"
		if p.Kind != "baseline" {
			cut = fmt.Sprintf("%d", p.Cut)
			window = fmt.Sprintf("%d", p.QueueDepth)
		}
		if p.Kind == "replicas" {
			rep = fmt.Sprintf("%d", p.Replicas)
		}
		t.AddRow(
			p.Config, cut, layer, window, rep,
			fmt.Sprintf("%.1f", p.ThroughputIPS),
			fmt.Sprintf("%.1f", p.P50MS),
			fmt.Sprintf("%.1f", p.P99MS),
		)
		switch p.Kind {
		case "baseline":
			if p.ThroughputIPS > bestBase {
				bestBase, bestBaseName = p.ThroughputIPS, p.Config
			}
		case "cut":
			if p.ThroughputIPS > bestSplit {
				bestSplit, bestSplitName = p.ThroughputIPS, p.Config
			}
		}
	}
	for _, p := range points {
		if p.Kind == "replicas" && bestSplit > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: %.1f img/s (%+.0f%% vs the best unreplicated cut at %.1f img/s)",
				p.Config, p.ThroughputIPS, (p.ThroughputIPS/bestSplit-1)*100, bestSplit))
		}
	}
	if bestSplit > bestBase {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"winner: %s at %.1f img/s beats best whole-inference baseline %s (%.1f img/s, +%.0f%%)",
			bestSplitName, bestSplit, bestBaseName, bestBase, (bestSplit/bestBase-1)*100))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"no cut beats the best whole-inference baseline %s (%.1f img/s); best split %s at %.1f img/s",
			bestBaseName, bestBase, bestSplitName, bestSplit))
	}
	return t, nil
}
