package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/imagenet"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// perfResult is one performance measurement: steady-state throughput
// plus the dispersion behind the figure's error bars.
type perfResult struct {
	ImagesPerSec float64
	PerImageMS   float64
	// StdMS is the standard deviation of per-inference (VPU) or
	// per-batch-amortized (CPU/GPU) latencies in milliseconds.
	StdMS float64
}

// Device groups of the experiments.
func cpuGroup(batch int) pipeline.Group { return pipeline.Group{Kind: pipeline.GroupCPU, Batch: batch} }
func gpuGroup(batch int) pipeline.Group { return pipeline.Group{Kind: pipeline.GroupGPU, Batch: batch} }
func vpuGroup(sticks int) pipeline.Group {
	return pipeline.Group{Kind: pipeline.GroupVPU, Devices: sticks}
}

// session builds one bench run on the declarative session: cfg's
// groups, traffic and serving edge over the harness's GoogLeNet, a
// label-only dataset of exactly `images` images, and the harness seed.
// It labels every group of cfg with seedLabel, so each
// draws its device jitter from the seed derived under that label:
// distinct runs of one experiment measure independent jitter while
// runs sharing a label face identical devices.
func (h *Harness) session(images int, seedLabel string, cfg pipeline.Config) (*pipeline.Session, error) {
	cfg.Dataset = h.perfDataset(images)
	cfg.Seed = h.cfg.Seed
	cfg.Net = h.goog
	for i := range cfg.Groups {
		cfg.Groups[i].SeedLabel = seedLabel
	}
	return pipeline.NewFromConfig(cfg)
}

// run builds and runs one bench session (see session).
func (h *Harness) run(images int, seedLabel string, cfg pipeline.Config) (*pipeline.Report, error) {
	sess, err := h.session(images, seedLabel, cfg)
	if err != nil {
		return nil, err
	}
	return sess.Run()
}

// probe is one closed-loop capacity measurement: throughput and the
// fleet's setup time.
type probe struct {
	capacity float64
	ready    time.Duration
}

// capacity returns the probe memoized under key, running measure on
// first use. The probes are deterministic and shared across
// experiments, so an all-experiments run pays each closed-loop
// simulation once.
func (h *Harness) capacity(key string, measure func() (*pipeline.Report, error)) (float64, time.Duration, error) {
	p, ok := h.probes[key]
	if !ok {
		rep, err := measure()
		if err != nil {
			return 0, 0, err
		}
		p = probe{capacity: rep.Throughput, ready: rep.Job.ReadyAt}
		if h.probes == nil {
			h.probes = map[string]probe{}
		}
		h.probes[key] = p
	}
	return p.capacity, p.ready, nil
}

// perfRun measures one device group closed-loop over `images`
// inferences. runName isolates the jitter seeds, so distinct subsets
// measure slightly different values — the error bars of Fig. 6a.
func (h *Harness) perfRun(g pipeline.Group, images int, runName string) (perfResult, error) {
	rep, err := h.run(images, g.Kind.String()+"-run/"+runName, pipeline.Config{
		Groups: []pipeline.Group{g},
		Retain: true,
	})
	if err != nil {
		return perfResult{}, err
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var spans stats.Running
	seen := map[time.Duration]bool{}
	for _, r := range rep.Results {
		if g.Kind == pipeline.GroupVPU {
			spans.Add(ms(r.End - r.Start))
			continue
		}
		// Per-batch spans, amortized per image.
		if seen[r.Start] {
			continue
		}
		seen[r.Start] = true
		spans.Add(ms(r.End-r.Start) / float64(g.Batch))
	}
	return perfResult{
		ImagesPerSec: rep.Throughput,
		PerImageMS:   1e3 / rep.Throughput,
		StdMS:        spans.Std(),
	}, nil
}

// perfDataset configures the label-only dataset of the performance
// runs: exactly n images in one subset.
func (h *Harness) perfDataset(n int) imagenet.Config {
	cfg := imagenet.DefaultConfig()
	cfg.Images = n
	cfg.Subsets = 1
	cfg.Seed = h.cfg.Seed + 2012
	return cfg
}

// fmtRatio renders a measured-vs-paper pair as "x (paper y)".
func fmtRatio(measured, paper float64, format string) string {
	return fmt.Sprintf(format+" (paper "+format+")", measured, paper)
}

// pctDelta formats the relative deviation from the paper's value.
func pctDelta(measured, paper float64) string {
	if paper == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (measured/paper-1)*100)
}

// round2 keeps tables stable across float formatting quirks.
func round2(v float64) float64 { return math.Round(v*100) / 100 }
