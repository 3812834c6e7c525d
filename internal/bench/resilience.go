package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// The resilience experiment measures serving dependability under
// injected hardware faults — the availability axis the ROADMAP's
// production north-star adds to the paper's throughput story. For
// each multi-VPU configuration it probes closed-loop capacity, then
// offers Poisson traffic at resilienceLoad of capacity while a fault
// plan (empty, light, heavy) plays out, once per recovery policy:
//
//   - "none":      health monitoring off entirely — only legal for the
//     empty plan (a hang would deadlock), and the control
//     the empty-plan rows must match bit for bit.
//   - "fail-stop": failures are detected (completion timeout) but the
//     device is abandoned; in-flight items are dropped and
//     survivors absorb the load.
//   - "recovery":  the self-healing pipeline — reset, firmware
//     re-upload, RTOS boot, graph re-allocation, in-flight
//     redelivery within the attempt budget.
//
// Both policies face the identical arrival sequence and the identical
// injected fault sequence (seeds depend only on config and fault
// level), so the goodput gap is attributable to recovery alone.

// resilienceLoad is the offered-load fraction of closed-loop
// capacity: high enough that losing one of four sticks without
// recovery leaves the survivors almost no headroom (0.65 × 4/3 ≈ 87%
// of the degraded capacity, so the outage backlog barely drains),
// low enough that the healthy — or healed — system serves comfortably
// and works the backlog off at speed.
const resilienceLoad = 0.65

// resilienceWindowScale stretches the serving window of this
// experiment (images = scale × ImagesPerSubset): the goodput gap
// between healing and abandoning a device is in the post-recovery
// tail, which a too-short window would truncate.
const resilienceWindowScale = 2

// resilienceTimeout is the completion heartbeat of the monitored
// variants; resilienceAttempts the per-item delivery budget.
const (
	resilienceTimeout  = 2 * time.Second
	resilienceAttempts = 3
)

// ResiliencePoint is one (configuration, fault level, recovery
// policy) measurement — the machine-readable form behind the
// resilience table and the BENCH_PR4.json snapshot.
type ResiliencePoint struct {
	// Config names the device configuration ("vpu-4" = one 4-stick
	// NCSw target, "pool-4x1" = a health-aware pool of 4 single-stick
	// groups under latency routing).
	Config string `json:"config"`
	// Recovery is the policy: "probe", "none", "fail-stop", "recovery".
	Recovery string `json:"recovery"`
	// Faults is the injected fault level: "probe", "none", "light",
	// "heavy".
	Faults string `json:"faults"`
	// Injected counts the faults actually driven in.
	Injected int `json:"injected_faults"`
	// OfferedIPS is the Poisson arrival rate; AchievedIPS the measured
	// steady-state completion rate.
	OfferedIPS  float64 `json:"offered_img_per_s"`
	AchievedIPS float64 `json:"achieved_img_per_s"`
	// SLOMS is the per-item deadline; GoodputPct the percentage of
	// arrivals completing within it (fault drops count against it).
	SLOMS      float64 `json:"slo_ms"`
	GoodputPct float64 `json:"goodput_pct"`
	// Latency tail, milliseconds.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Availability counters: redeliveries, fault-attributed drops,
	// detected outages and how many recovered.
	Retries    int `json:"retries"`
	FaultDrops int `json:"fault_drops"`
	Outages    int `json:"outages"`
	Recovered  int `json:"recovered"`
	// MTTRMS is the mean detection-to-rejoin time of recovered
	// outages; UptimePct the device-time fraction the sticks were
	// serviceable (abandoned sticks charged to the end of the run).
	MTTRMS    float64 `json:"mttr_ms"`
	UptimePct float64 `json:"uptime_pct"`
}

// resilienceConfig is one device configuration of the experiment.
type resilienceConfig struct {
	name   string
	sticks int
	pooled bool // pool of single-stick children vs one multi-stick target
}

func resilienceConfigs() []resilienceConfig {
	return []resilienceConfig{
		{name: "vpu-4", sticks: 4, pooled: false},
		{name: "pool-4x1", sticks: 4, pooled: true},
	}
}

// resilienceLevel describes one fault intensity; plan builds the
// deterministic scenario relative to the measured setup time and the
// expected serving window.
type resilienceLevel struct {
	name string
	plan func(ready, window time.Duration, devices []string) fault.Plan
}

func resilienceLevels() []resilienceLevel {
	frac := func(ready, window time.Duration, f float64) time.Duration {
		return ready + time.Duration(f*float64(window))
	}
	return []resilienceLevel{
		{name: "none", plan: func(time.Duration, time.Duration, []string) fault.Plan {
			return fault.Plan{}
		}},
		// light: one stick hangs a quarter into the window — the
		// canonical wedged-firmware incident.
		{name: "light", plan: func(ready, window time.Duration, devices []string) fault.Plan {
			return fault.Plan{Events: []fault.Event{
				{Device: devices[1], Kind: fault.StickHang, At: frac(ready, window, 0.25)},
			}}
		}},
		// heavy: a straggler window, a hang, a USB link drop and a
		// transient-error burst, plus a seeded stochastic tail drawing
		// further hangs/drops — the bad day at the rack.
		{name: "heavy", plan: func(ready, window time.Duration, devices []string) fault.Plan {
			return fault.Plan{
				Events: []fault.Event{
					{Device: devices[3], Kind: fault.Slowdown, At: frac(ready, window, 0.10),
						Factor: 3, Duration: time.Duration(0.2 * float64(window))},
					{Device: devices[1], Kind: fault.StickHang, At: frac(ready, window, 0.20)},
					{Device: devices[2], Kind: fault.LinkDrop, At: frac(ready, window, 0.40)},
					{Device: devices[0], Kind: fault.TransientError, At: frac(ready, window, 0.55), Count: 3},
				},
				Processes: []fault.Process{{
					Devices: devices,
					Kinds:   []fault.Kind{fault.StickHang, fault.LinkDrop},
					Rate:    1.2 / window.Seconds(),
					Start:   frac(ready, window, 0.6),
					End:     frac(ready, window, 1.0),
				}},
			}
		}},
	}
}

// ResiliencePoints runs the resilience experiment.
func (h *Harness) ResiliencePoints() ([]ResiliencePoint, error) {
	images := resilienceWindowScale * h.cfg.ImagesPerSubset
	var points []ResiliencePoint
	for _, cfg := range resilienceConfigs() {
		capacity, ready, err := h.resilienceCapacity(cfg, images)
		if err != nil {
			return nil, fmt.Errorf("bench: resilience capacity %s: %w", cfg.name, err)
		}
		slo := time.Duration(sloServiceMultiple * float64(cfg.sticks) / capacity * float64(time.Second))
		points = append(points, ResiliencePoint{
			Config:      cfg.name,
			Recovery:    "probe",
			Faults:      "probe",
			AchievedIPS: round2(capacity),
			SLOMS:       round2(slo.Seconds() * 1e3),
			UptimePct:   100,
		})
		rate := capacity * resilienceLoad
		window := time.Duration(float64(images) / rate * float64(time.Second))
		for _, level := range resilienceLevels() {
			policies := []string{"fail-stop", "recovery"}
			if level.name == "none" {
				// The unmonitored control: the empty-plan rows of both
				// policies must match it bit for bit.
				policies = append([]string{"none"}, policies...)
			}
			for _, policy := range policies {
				pt, err := h.resiliencePoint(cfg, level, policy, images, rate, ready, window, slo)
				if err != nil {
					return nil, fmt.Errorf("bench: resilience %s %s/%s: %w", cfg.name, level.name, policy, err)
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// resilienceCapacity probes a configuration's closed-loop throughput
// and setup time, fault-free and unmonitored. The probe is shared by
// the resilience and hedge experiments and memoized per (config,
// images) on the harness.
func (h *Harness) resilienceCapacity(cfg resilienceConfig, images int) (float64, time.Duration, error) {
	return h.capacity(fmt.Sprintf("%s/%d", cfg.name, images), func() (*pipeline.Report, error) {
		return h.run(images, "resilience/"+cfg.name+"/run/capacity", cfg.fleet(pipeline.Config{}))
	})
}

// resiliencePoint measures one (configuration, level, policy) cell.
func (h *Harness) resiliencePoint(cfg resilienceConfig, level resilienceLevel, policy string, images int, rate float64, ready time.Duration, window, slo time.Duration) (ResiliencePoint, error) {
	pc := pipeline.Config{SLO: slo}
	if policy != "none" {
		pc.Recovery = core.RecoveryConfig{
			Timeout:     resilienceTimeout,
			Recover:     policy == "recovery",
			MaxAttempts: resilienceAttempts,
		}
	}
	sess, log, err := h.faultedSession(cfg, level, images, rate, ready, window, pc)
	if err != nil {
		return ResiliencePoint{}, err
	}
	// Fail-stop abandonments surface as job errors by design; the
	// degradation is the measurement, so they do not fail the
	// experiment — the outage/drop counters carry the story.
	rep, err := sess.Run()
	if rep == nil {
		return ResiliencePoint{}, err
	}
	col, job := rep.Collector, rep.Job
	ms := func(d time.Duration) float64 { return round2(d.Seconds() * 1e3) }
	uptime := 100.0
	if span := job.Span(); span > 0 && cfg.sticks > 0 {
		down := col.DowntimeThrough(job.DoneAt)
		uptime = 100 * (1 - float64(down)/float64(time.Duration(cfg.sticks)*span))
		if uptime < 0 {
			uptime = 0
		}
	}
	return ResiliencePoint{
		Config:      cfg.name,
		Recovery:    policy,
		Faults:      level.name,
		Injected:    log.Count(),
		OfferedIPS:  round2(rate),
		AchievedIPS: round2(rep.Throughput),
		SLOMS:       round2(slo.Seconds() * 1e3),
		GoodputPct:  round2(col.Goodput() * 100),
		P50MS:       ms(rep.Latency.P50),
		P99MS:       ms(rep.Latency.P99),
		Retries:     col.Retries,
		FaultDrops:  col.FaultDrops,
		Outages:     col.Outages,
		Recovered:   col.Recovered,
		MTTRMS:      ms(col.MTTR()),
		UptimePct:   round2(uptime),
	}, nil
}

// fleet declares the configuration's device groups on pc: one
// multi-stick VPU group, or one single-stick group per stick under
// latency routing. Hedging (pc.Hedge) then runs across sticks for the
// multi-stick target and across groups for the pool.
func (c resilienceConfig) fleet(pc pipeline.Config) pipeline.Config {
	if !c.pooled {
		pc.Groups = []pipeline.Group{vpuGroup(c.sticks)}
		return pc
	}
	pc.Groups = make([]pipeline.Group, c.sticks)
	for i := range pc.Groups {
		pc.Groups[i] = vpuGroup(1)
	}
	pc.Routing = core.RouteLatency
	return pc
}

// faultedSession builds one (configuration, level) serving run of the
// resilience and hedge experiments with level's fault plan armed. The
// seeds depend only on (config, level): every policy or variant of a
// cell faces identical device jitter, arrivals and faults. The plan is
// driven through fault.Apply over a registry of the sticks alone, under
// the experiment's own fault seed — not Config.Faults, which derives
// another seed and also registers each stick's USB port (a Slowdown
// would then slow the link as well).
func (h *Harness) faultedSession(cfg resilienceConfig, level resilienceLevel, images int, rate float64, ready, window time.Duration, pc pipeline.Config) (*pipeline.Session, *fault.Log, error) {
	pc.Arrivals = core.DelayedArrivals(core.PoissonArrivals(rate), ready)
	pc.ArrivalLabel = "resilience/" + cfg.name + "/" + level.name
	sess, err := h.session(images, "resilience/"+cfg.name+"/run/"+level.name, cfg.fleet(pc))
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(sess.Devices()))
	reg := fault.Registry{}
	for i, d := range sess.Devices() {
		names[i] = d.Name()
		reg.Add(d.Name(), d)
	}
	log, err := fault.Apply(sess.Env(), level.plan(ready, window, names),
		rng.New(h.cfg.Seed).Derive("resilience/faults/"+cfg.name+"/"+level.name), reg, nil)
	if err != nil {
		return nil, nil, err
	}
	return sess, log, nil
}

// Resilience renders the resilience experiment as a table: goodput
// and tail latency per fault level, self-healing recovery vs
// fail-stop abandonment, with availability metrics.
func (h *Harness) Resilience() (*Table, error) {
	points, err := h.ResiliencePoints()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "resilience",
		Title: "Serving under injected faults: self-healing recovery vs fail-stop",
		Columns: []string{
			"config", "faults", "recovery", "goodput %", "p99 ms",
			"outages", "recovered", "retries", "dropped", "mttr ms", "uptime %",
		},
		Notes: []string{
			fmt.Sprintf("images per point: %d; Poisson arrivals at %.0f%% of closed-loop capacity start after setup",
				resilienceWindowScale*h.cfg.ImagesPerSubset, resilienceLoad*100),
			fmt.Sprintf("monitored policies: completion timeout %v, %d delivery attempts per item",
				resilienceTimeout, resilienceAttempts),
			"both policies face the identical arrival and fault sequences; goodput counts fault drops against arrivals",
			"recovery pays the real outage cost: reset, firmware re-upload, RTOS boot, graph re-allocation",
		},
	}
	type key struct{ config, faults string }
	good := map[key]map[string]float64{}
	for _, p := range points {
		if p.Recovery == "probe" {
			t.AddRow(p.Config, "-", "capacity",
				fmt.Sprintf("%.1f img/s", p.AchievedIPS), "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("slo=%.0fms", p.SLOMS))
			continue
		}
		k := key{p.Config, p.Faults}
		if good[k] == nil {
			good[k] = map[string]float64{}
		}
		good[k][p.Recovery] = p.GoodputPct
		t.AddRow(
			p.Config, p.Faults, p.Recovery,
			fmt.Sprintf("%.1f", p.GoodputPct),
			fmt.Sprintf("%.1f", p.P99MS),
			fmt.Sprintf("%d", p.Outages),
			fmt.Sprintf("%d", p.Recovered),
			fmt.Sprintf("%d", p.Retries),
			fmt.Sprintf("%d", p.FaultDrops),
			fmt.Sprintf("%.0f", p.MTTRMS),
			fmt.Sprintf("%.1f", p.UptimePct),
		)
	}
	for _, cfg := range resilienceConfigs() {
		for _, lvl := range []string{"light", "heavy"} {
			g := good[key{cfg.name, lvl}]
			if g == nil {
				continue
			}
			if r, f := g["recovery"], g["fail-stop"]; r > f {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s/%s: recovery holds goodput at %.1f%% vs %.1f%% fail-stop", cfg.name, lvl, r, f))
			}
		}
		g := good[key{cfg.name, "none"}]
		if g != nil && g["none"] == g["fail-stop"] && g["none"] == g["recovery"] {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: with an empty plan all three policies are identical (monitoring is free)", cfg.name))
		}
	}
	return t, nil
}
