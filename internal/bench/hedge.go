package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// The hedge experiment measures what speculative hedged requests buy
// on tail latency — Dean & Barroso's tail-at-scale defense applied to
// the USB-attached VPU rack. For each multi-VPU configuration it
// probes closed-loop capacity, then offers the same Poisson traffic
// as the resilience experiment (resilienceLoad of capacity) under the
// PR 4 fault levels (none, light, heavy), once per hedge variant:
//
//   - "off": no hedging — the baseline every variant is judged
//     against.
//   - "inf": hedging armed with trigger=∞ (core.HedgeNever). Never
//     fires; must match "off" bit for bit — the gate that proves the
//     hedging machinery stays out of the event stream.
//   - "t2"/"t4": fixed triggers at 2x and 4x the per-stick service
//     unit (sticks/capacity) — hedge an item once it has been in
//     flight that long.
//   - "p95": a live-quantile trigger — hedge an item older than the
//     p95 of observed completion ages (an exact streaming nearest-rank
//     quantile, O(log n) per completion), after a 20-completion warmup.
//
// Every variant of one (config, level) cell faces the identical
// arrival, jitter and fault sequences (seeds depend only on config
// and level), so the p99 and goodput deltas are attributable to
// hedging alone. All variants run under the self-healing recovery
// policy: hedging complements recovery — the duplicate answers in
// milliseconds while the reboot takes seconds — it does not replace
// it.

// HedgePoint is one (configuration, fault level, hedge variant)
// measurement — the machine-readable form behind the hedge table and
// the BENCH_PR5.json snapshot.
type HedgePoint struct {
	// Config names the device configuration ("vpu-4" = one 4-stick
	// NCSw target hedging across its own sticks, "pool-4x1" = a
	// health-aware pool of 4 single-stick groups hedging across
	// children under latency routing).
	Config string `json:"config"`
	// Faults is the injected fault level: "probe", "none", "light",
	// "heavy" (the PR 4 resilience plans).
	Faults string `json:"faults"`
	// Hedge is the variant: "probe", "off", "inf", "t2", "t4", "p95".
	Hedge string `json:"hedge"`
	// TriggerMS is the fixed hedge trigger in milliseconds (0 for
	// off/inf/probe; the p95 variant reports its quantile-independent
	// floor, 0).
	TriggerMS float64 `json:"trigger_ms"`
	// Injected counts the faults actually driven in.
	Injected int `json:"injected_faults"`
	// OfferedIPS is the Poisson arrival rate; AchievedIPS the measured
	// steady-state completion rate of delivered (deduplicated) results.
	OfferedIPS  float64 `json:"offered_img_per_s"`
	AchievedIPS float64 `json:"achieved_img_per_s"`
	// SLOMS is the per-item deadline; GoodputPct the percentage of
	// arrivals completing within it (fault drops count against it).
	SLOMS      float64 `json:"slo_ms"`
	GoodputPct float64 `json:"goodput_pct"`
	// Latency tail of delivered results, milliseconds.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Hedge accounting: duplicates launched, completions where the
	// duplicate won, losing completions a device fully served, and
	// waste as a percentage of all device completions.
	Hedged     int     `json:"hedged"`
	HedgeWins  int     `json:"hedge_wins"`
	HedgeWaste int     `json:"hedge_waste"`
	WastePct   float64 `json:"hedge_waste_pct"`
	// Recovery-side counters, for cross-reading against BENCH_PR4.
	Retries    int `json:"retries"`
	FaultDrops int `json:"fault_drops"`
}

// hedgeVariant names one hedge policy of the sweep.
type hedgeVariant struct {
	name string
	hc   core.HedgeConfig
}

// hedgeBudget is the base hedge-volume cap for every firing variant,
// scaled live by fleet utilization (core.HedgeConfig.DynamicBudget):
// lightly loaded, up to this fraction of dispatches may be
// duplicated; near saturation the effective budget shrinks toward
// zero and hedging stops. Without any budget an aggressive trigger at
// 65% load feeds on its own queueing — each duplicate adds load, load
// adds latency, latency fires more triggers — and the hedge storm can
// saturate a perfectly healthy system (measured: a budgetless 2x
// trigger on the pool config duplicated half the offered items and
// collapsed goodput to 8% with no fault injected at all). The
// utilization scaling cuts that feedback loop at its source instead
// of merely rationing it.
const hedgeBudget = 0.15

// hedgeVariants builds the sweep for one configuration. unit is the
// per-stick service time at measured capacity (sticks/capacity).
func hedgeVariants(unit time.Duration) []hedgeVariant {
	return []hedgeVariant{
		{name: "off", hc: core.HedgeConfig{}},
		{name: "inf", hc: core.HedgeConfig{Trigger: core.HedgeNever}},
		{name: "t2", hc: core.HedgeConfig{Trigger: 2 * unit, Budget: hedgeBudget, DynamicBudget: true}},
		{name: "t4", hc: core.HedgeConfig{Trigger: 4 * unit, Budget: hedgeBudget, DynamicBudget: true}},
		{name: "p95", hc: core.HedgeConfig{Quantile: 0.95, Budget: hedgeBudget, DynamicBudget: true}},
	}
}

// HedgePoints runs the hedge experiment.
func (h *Harness) HedgePoints() ([]HedgePoint, error) {
	images := resilienceWindowScale * h.cfg.ImagesPerSubset
	var points []HedgePoint
	for _, cfg := range resilienceConfigs() {
		capacity, ready, err := h.resilienceCapacity(cfg, images)
		if err != nil {
			return nil, fmt.Errorf("bench: hedge capacity %s: %w", cfg.name, err)
		}
		slo := time.Duration(sloServiceMultiple * float64(cfg.sticks) / capacity * float64(time.Second))
		unit := time.Duration(float64(cfg.sticks) / capacity * float64(time.Second))
		points = append(points, HedgePoint{
			Config:      cfg.name,
			Faults:      "probe",
			Hedge:       "probe",
			AchievedIPS: round2(capacity),
			SLOMS:       round2(slo.Seconds() * 1e3),
		})
		rate := capacity * resilienceLoad
		window := time.Duration(float64(images) / rate * float64(time.Second))
		for _, level := range resilienceLevels() {
			for _, v := range hedgeVariants(unit) {
				pt, err := h.hedgePoint(cfg, level, v, images, rate, ready, window, slo)
				if err != nil {
					return nil, fmt.Errorf("bench: hedge %s %s/%s: %w", cfg.name, level.name, v.name, err)
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// hedgePoint measures one (configuration, level, variant) cell under
// self-healing recovery.
func (h *Harness) hedgePoint(cfg resilienceConfig, level resilienceLevel, v hedgeVariant, images int, rate float64, ready time.Duration, window, slo time.Duration) (HedgePoint, error) {
	sess, log, err := h.faultedSession(cfg, level, images, rate, ready, window, pipeline.Config{
		SLO: slo,
		Recovery: core.RecoveryConfig{
			Timeout:     resilienceTimeout,
			Recover:     true,
			MaxAttempts: resilienceAttempts,
		},
		Hedge: v.hc,
	})
	if err != nil {
		return HedgePoint{}, err
	}
	rep, err := sess.Run()
	if err != nil {
		return HedgePoint{}, err
	}
	col := rep.Collector
	ms := func(d time.Duration) float64 { return round2(d.Seconds() * 1e3) }
	triggerMS := 0.0
	if v.hc.Trigger > 0 && v.hc.Trigger != core.HedgeNever {
		triggerMS = round2(v.hc.Trigger.Seconds() * 1e3)
	}
	return HedgePoint{
		Config:      cfg.name,
		Faults:      level.name,
		Hedge:       v.name,
		TriggerMS:   triggerMS,
		Injected:    log.Count(),
		OfferedIPS:  round2(rate),
		AchievedIPS: round2(rep.Throughput),
		SLOMS:       round2(slo.Seconds() * 1e3),
		GoodputPct:  round2(col.Goodput() * 100),
		P50MS:       ms(rep.Latency.P50),
		P99MS:       ms(rep.Latency.P99),
		Hedged:      col.Hedged,
		HedgeWins:   col.HedgeWins,
		HedgeWaste:  col.HedgeWaste,
		WastePct:    round2(col.HedgeWasteRate() * 100),
		Retries:     col.Retries,
		FaultDrops:  col.FaultDrops,
	}, nil
}

// Hedge renders the hedge experiment as a table: p99 and goodput per
// hedge variant and fault level, with the hedge volume and waste that
// bought them.
func (h *Harness) Hedge() (*Table, error) {
	points, err := h.HedgePoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "hedge",
		Title: "Hedged requests: tail latency vs hedge trigger, with and without faults",
		Columns: []string{
			"config", "faults", "hedge", "trigger ms", "goodput %", "p50 ms", "p99 ms",
			"hedged", "wins", "waste %", "retries", "dropped",
		},
		Notes: []string{
			fmt.Sprintf("images per point: %d; Poisson arrivals at %.0f%% of closed-loop capacity start after setup",
				resilienceWindowScale*h.cfg.ImagesPerSubset, resilienceLoad*100),
			"all variants run under self-healing recovery (2s heartbeat); hedging answers in milliseconds, the reboot in seconds",
			"t2/t4 = fixed trigger at 2x/4x the per-stick service unit; p95 = live-quantile trigger after a 20-completion warmup",
			"every variant of one (config, faults) cell faces identical arrivals, jitter and faults",
			fmt.Sprintf("firing variants carry a dynamic hedge budget (%.0f%% base, scaled by fleet headroom to zero at saturation): an unbudgeted aggressive trigger feeds on its own queueing and can saturate a healthy system", hedgeBudget*100),
			"hedging pays most on the monolithic vpu-4 target; the health-aware pool already routes around outages, so duplicates there mostly buy waste",
		},
	}
	type key struct{ config, faults string }
	p99 := map[key]map[string]float64{}
	full := map[key]map[string]HedgePoint{}
	for _, p := range points {
		if p.Hedge == "probe" {
			t.AddRow(p.Config, "-", "capacity",
				fmt.Sprintf("%.1f img/s", p.AchievedIPS), fmt.Sprintf("slo=%.0fms", p.SLOMS),
				"-", "-", "-", "-", "-", "-", "-")
			continue
		}
		k := key{p.Config, p.Faults}
		if p99[k] == nil {
			p99[k] = map[string]float64{}
			full[k] = map[string]HedgePoint{}
		}
		p99[k][p.Hedge] = p.P99MS
		full[k][p.Hedge] = p
		t.AddRow(
			p.Config, p.Faults, p.Hedge,
			fmt.Sprintf("%.0f", p.TriggerMS),
			fmt.Sprintf("%.1f", p.GoodputPct),
			fmt.Sprintf("%.1f", p.P50MS),
			fmt.Sprintf("%.1f", p.P99MS),
			fmt.Sprintf("%d", p.Hedged),
			fmt.Sprintf("%d", p.HedgeWins),
			fmt.Sprintf("%.1f", p.WastePct),
			fmt.Sprintf("%d", p.Retries),
			fmt.Sprintf("%d", p.FaultDrops),
		)
	}
	for _, p := range points {
		k := key{p.Config, p.Faults}
		if p.Hedge != "off" || p.Faults == "none" || p.Faults == "probe" {
			continue
		}
		best, bestName := p.P99MS, ""
		for _, name := range []string{"t2", "t4", "p95"} {
			if v, ok := p99[k][name]; ok && v < best {
				best, bestName = v, name
			}
		}
		if bestName != "" {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s/%s: hedging (%s) cuts p99 from %.0fms to %.0fms (%.1fx)",
				p.Config, p.Faults, bestName, p.P99MS, best, p.P99MS/best))
		}
	}
	// The bit-for-bit claim is gated on the complete measurement, not
	// just the rounded p99 column: every field of each inf point must
	// equal its off point, label aside.
	allMatch := true
	for _, m := range full {
		off, inf := m["off"], m["inf"]
		inf.Hedge = off.Hedge
		if off != inf {
			allMatch = false
		}
	}
	if allMatch {
		t.Notes = append(t.Notes, "trigger=∞ rows match the unhedged baseline bit for bit (hedging armed is free until it fires)")
	}
	return t, nil
}
