package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// sloLoads are the offered-load fractions of each configuration's
// measured closed-loop capacity; 1.1 and 1.3 deliberately over-drive
// the device to show what each serving edge does past the knee.
var sloLoads = []float64{0.5, 0.7, 0.9, 1.1, 1.3}

// sloServiceMultiple sizes the SLO target per configuration: the
// deadline is this many full-batch service intervals of the device at
// its closed-loop capacity — loose enough that a healthy device meets
// it easily below the knee, tight enough that an unbounded queue
// blows through it the moment the queue starts growing.
const sloServiceMultiple = 4.0

// sloAdmissionDepth bounds the ingress of the "bounded" variants:
// roughly two full batches of backlog, mirroring the pool feed depth
// philosophy (small, device-speed-matched buffers).
const sloAdmissionDepth = 16

// sloMaxWaitFraction sizes the adaptive assembler's max-wait as a
// fraction of the SLO target: a partial batch never burns more than
// this share of the deadline waiting for company.
const sloMaxWaitFraction = 0.125

// SLOPoint is one (configuration, variant, offered load) measurement
// of the slo experiment — the machine-readable form behind the SLO
// table and the BENCH_PR3.json snapshot.
type SLOPoint struct {
	// Device names the configuration ("cpu-b8", "vpu-4", ...).
	Device string `json:"device"`
	// Batching is "fixed" or "adaptive" for the batch engines, "n/a"
	// for the per-item VPU pipeline.
	Batching string `json:"batching"`
	// Admission is "open" (unbounded ingress) or "bounded" (admission
	// queue with shedding and deadline expiry).
	Admission string `json:"admission"`
	// LoadFraction is offered rate / closed-loop capacity; 0 marks
	// the closed-loop capacity probe itself.
	LoadFraction float64 `json:"load_fraction"`
	// OfferedIPS is the Poisson arrival rate (img/s); 0 for the probe.
	OfferedIPS float64 `json:"offered_img_per_s"`
	// AchievedIPS is the measured steady-state completion rate.
	AchievedIPS float64 `json:"achieved_img_per_s"`
	// SLOMS is the per-item deadline of this configuration (ms).
	SLOMS float64 `json:"slo_ms"`
	// GoodputPct is the percentage of arrivals completing within the
	// SLO; shed and expired arrivals count against it.
	GoodputPct float64 `json:"goodput_pct"`
	// ShedPct is the percentage of arrivals dropped at the admission
	// edge (overload policy + deadline expiry).
	ShedPct float64 `json:"shed_pct"`
	// MeanBatch is the realized mean batch size (batch engines only).
	MeanBatch float64 `json:"mean_batch,omitempty"`
	// Latency tail and split, milliseconds.
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`
	QueueMeanMS   float64 `json:"queue_mean_ms"`
	ServiceMeanMS float64 `json:"service_mean_ms"`
}

// sloVariant is one serving-edge configuration of the experiment.
type sloVariant struct {
	batching  string // "fixed" | "adaptive" | "n/a"
	admission string // "open" | "bounded"
}

// sloVariants returns the serving edges compared for a device: the
// PR2 baseline (fixed batch, unbounded ingress), adaptive assembly on
// the same open ingress, and adaptive assembly behind bounded
// admission. The per-item VPU pipeline has no batch assembler, so it
// compares open vs bounded only.
func sloVariants(cfg servingConfig) []sloVariant {
	if cfg.dev == "vpu" {
		return []sloVariant{
			{batching: "n/a", admission: "open"},
			{batching: "n/a", admission: "bounded"},
		}
	}
	return []sloVariant{
		{batching: "fixed", admission: "open"},
		{batching: "adaptive", admission: "open"},
		{batching: "adaptive", admission: "bounded"},
	}
}

// sloConfigs are the device groups of the slo experiment: the two
// throughput-friendly batch engines (where adaptive assembly has
// something to win) and the paper's 4-stick VPU pipeline (where only
// admission control applies).
func sloConfigs() []servingConfig {
	return []servingConfig{
		{name: "cpu-b8", dev: "cpu", batch: 8},
		{name: "gpu-b8", dev: "gpu", batch: 8},
		{name: "vpu-4", dev: "vpu", sticks: 4},
	}
}

// SLOPoints runs the slo experiment: for every configuration, a
// closed-loop capacity probe (shared with the serving experiment)
// followed, at each offered load from 50% to 130% of capacity, by one
// run per serving-edge variant — fixed vs adaptive batch assembly,
// open vs bounded admission — all against the same Poisson arrival
// sequence, measuring tail latency, goodput against the
// configuration's SLO, and the realized shed rate.
func (h *Harness) SLOPoints() ([]SLOPoint, error) {
	images := h.cfg.ImagesPerSubset
	var points []SLOPoint
	for _, cfg := range sloConfigs() {
		capacity, ready, err := h.servingCapacity(cfg, images)
		if err != nil {
			return nil, fmt.Errorf("bench: slo capacity %s: %w", cfg.name, err)
		}
		slo := h.sloTarget(cfg, capacity)
		points = append(points, SLOPoint{
			Device:      cfg.name,
			Batching:    "probe",
			Admission:   "probe",
			AchievedIPS: round2(capacity),
			SLOMS:       round2(slo.Seconds() * 1e3),
		})
		for _, frac := range sloLoads {
			for _, v := range sloVariants(cfg) {
				pt, err := h.sloPoint(cfg, v, images, frac, capacity*frac, ready, slo)
				if err != nil {
					return nil, fmt.Errorf("bench: slo %s %s/%s@%.2f: %w",
						cfg.name, v.batching, v.admission, frac, err)
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// sloTarget derives a configuration's per-item deadline from its
// measured capacity: sloServiceMultiple full-batch service intervals.
func (h *Harness) sloTarget(cfg servingConfig, capacity float64) time.Duration {
	unit := cfg.batch
	if cfg.dev == "vpu" {
		unit = cfg.sticks
	}
	return time.Duration(sloServiceMultiple * float64(unit) / capacity * float64(time.Second))
}

// sloPoint measures one (configuration, variant, load) cell. The
// devices and arrivals depend only on (configuration, load), not the
// variant: every serving edge faces the identical traffic.
func (h *Harness) sloPoint(cfg servingConfig, v sloVariant, images int, frac, rate float64, ready time.Duration, slo time.Duration) (SLOPoint, error) {
	runName := fmt.Sprintf("load%.2f", frac)
	pc := pipeline.Config{
		Groups:       []pipeline.Group{cfg.group()},
		Arrivals:     core.DelayedArrivals(core.PoissonArrivals(rate), ready),
		ArrivalLabel: "slo/" + cfg.name + "/" + runName,
		SLO:          slo,
	}
	if v.batching == "adaptive" {
		pc.AdaptiveBatch = true
		pc.BatchMaxWait = time.Duration(sloMaxWaitFraction * float64(slo))
	}
	if v.admission == "bounded" {
		pc.AdmissionDepth = sloAdmissionDepth
		pc.AdmissionPolicy = core.ShedNewest
	}
	sess, err := h.session(images, "serving/"+cfg.name+"/run/"+runName, pc)
	if err != nil {
		return SLOPoint{}, err
	}
	rep, err := sess.Run()
	if err != nil {
		return SLOPoint{}, err
	}
	col, lat := rep.Collector, rep.Latency
	msOf := func(d time.Duration) float64 { return round2(d.Seconds() * 1e3) }
	pt := SLOPoint{
		Device:        cfg.name,
		Batching:      v.batching,
		Admission:     v.admission,
		LoadFraction:  frac,
		OfferedIPS:    round2(rate),
		AchievedIPS:   round2(rep.Throughput),
		SLOMS:         msOf(slo),
		GoodputPct:    round2(col.Goodput() * 100),
		ShedPct:       round2(col.ShedRate() * 100),
		P50MS:         msOf(lat.P50),
		P95MS:         msOf(lat.P95),
		P99MS:         msOf(lat.P99),
		MaxMS:         msOf(lat.Max),
		QueueMeanMS:   msOf(lat.QueueMean),
		ServiceMeanMS: msOf(lat.ServiceMean),
	}
	if bt, ok := sess.Targets()[0].(*core.BatchTarget); ok && bt.Batches() > 0 {
		pt.MeanBatch = round2(float64(rep.Images) / float64(bt.Batches()))
	}
	return pt, nil
}

// SLO renders the slo experiment as a table: per device group and
// offered load, the three serving edges side by side, with notes on
// where adaptive assembly beats the fixed batch and where bounded
// admission holds goodput past the knee.
func (h *Harness) SLO() (*Table, error) {
	points, err := h.SLOPoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "slo",
		Title: "SLO-aware serving: adaptive batching + admission control vs the fixed/open baseline",
		Columns: []string{
			"group", "batching", "admission", "load", "offered img/s",
			"p50 ms", "p99 ms", "goodput %", "shed %", "mean batch",
		},
		Notes: []string{
			fmt.Sprintf("images per point: %d; Poisson arrivals start after device setup", h.cfg.ImagesPerSubset),
			fmt.Sprintf("SLO per group: %.0f full-batch service intervals at closed-loop capacity", sloServiceMultiple),
			fmt.Sprintf("bounded admission: depth %d, shed-newest, items expire at the SLO deadline", sloAdmissionDepth),
			"goodput counts arrivals completing within the SLO; shed and expired arrivals count against it",
		},
	}
	type key struct {
		dev  string
		load float64
	}
	fixedP99 := map[key]float64{}
	adaptiveP99 := map[key]float64{}
	openGood := map[key]float64{}
	boundedGood := map[key]float64{}
	for _, p := range points {
		if p.LoadFraction == 0 {
			t.AddRow(p.Device, "-", "-", "capacity",
				fmt.Sprintf("%.1f", p.AchievedIPS),
				"-", "-", "-", "-",
				fmt.Sprintf("slo=%.0fms", p.SLOMS))
			continue
		}
		k := key{p.Device, p.LoadFraction}
		switch {
		case p.Batching == "fixed" && p.Admission == "open":
			fixedP99[k] = p.P99MS
		case p.Batching == "adaptive" && p.Admission == "open":
			adaptiveP99[k] = p.P99MS
		}
		if p.Admission == "open" && p.Batching != "fixed" {
			openGood[k] = p.GoodputPct
		}
		if p.Admission == "bounded" {
			boundedGood[k] = p.GoodputPct
		}
		mb := "-"
		if p.MeanBatch > 0 {
			mb = fmt.Sprintf("%.1f", p.MeanBatch)
		}
		t.AddRow(
			p.Device, p.Batching, p.Admission,
			fmt.Sprintf("%.0f%%", p.LoadFraction*100),
			fmt.Sprintf("%.1f", p.OfferedIPS),
			fmt.Sprintf("%.1f", p.P50MS),
			fmt.Sprintf("%.1f", p.P99MS),
			fmt.Sprintf("%.1f", p.GoodputPct),
			fmt.Sprintf("%.1f", p.ShedPct),
			mb,
		)
	}
	for _, cfg := range sloConfigs() {
		if cfg.dev == "vpu" {
			continue
		}
		k := key{cfg.name, sloLoads[0]}
		if a, f := adaptiveP99[k], fixedP99[k]; a > 0 && f > a {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: adaptive batching cuts p99 at %.0f%% load from %.1fms to %.1fms (%.1fx)",
				cfg.name, sloLoads[0]*100, f, a, f/a))
		}
	}
	for _, cfg := range sloConfigs() {
		k := key{cfg.name, sloLoads[len(sloLoads)-1]}
		if o, b := openGood[k], boundedGood[k]; b > o {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: past the knee (%.0f%% load) bounded admission holds goodput at %.1f%% vs %.1f%% open",
				cfg.name, sloLoads[len(sloLoads)-1]*100, b, o))
		}
	}
	return t, nil
}
