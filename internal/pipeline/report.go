package pipeline

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/power"
)

// TargetReport is the per-device-group slice of a session report.
type TargetReport struct {
	// Name is the target's name ("cpu", "vpu-multi(4)", ...).
	Name string
	// Kind is the group's device family.
	Kind GroupKind
	// Images is the number of completed inferences.
	Images int
	// Throughput is steady-state images per second.
	Throughput float64
	// TDPWatts is the group's thermal design power.
	TDPWatts float64
	// ImagesPerWatt is Eq. (1): Throughput / TDPWatts.
	ImagesPerWatt float64
	// TopOneError and MeanConfidence are accuracy aggregates
	// (meaningful for functional runs with labelled items).
	TopOneError    float64
	MeanConfidence float64
	// EnergyJoules and AvgPowerWatts come from the simulated power
	// meters (VPU groups only; 0 elsewhere) — the measurement the
	// paper leaves to future work.
	EnergyJoules  float64
	AvgPowerWatts float64
	// Latency is the group's per-item serving-latency distribution
	// (total with exact tail quantiles, split into queue wait and
	// service time). Under closed-loop runs the queue wait reflects
	// only internal buffering; under Config.Arrivals it is real queueing
	// against offered load.
	Latency core.LatencySummary
	// Goodput is the fraction of the group's completions that met the
	// session SLO (admission drops happen at ingress, before routing,
	// so they cannot be attributed to a group; the arrival-based
	// goodput lives on the aggregate Report). 0 when no SLO is set.
	Goodput float64
	// Counters are the group's serving events: its outages, recoveries,
	// retries and fault drops (VPU groups under a fault plan), and the
	// duplicates it received, won and wasted (under Config.Hedge).
	// Admission drops happen before routing, so Shed, Expired and
	// QuotaRejected stay zero here.
	core.Counters
	// Downtime is total device-down time (abandoned devices charged to
	// the end of the run), MTTR the mean detection-to-rejoin time of
	// recovered outages, and Uptime the device-time fraction the
	// group's sticks were serviceable.
	Downtime, MTTR time.Duration
	Uptime         float64
	// Job exposes the raw timing (StartedAt/ReadyAt/DoneAt, Err).
	Job *core.Job
	// Collector exposes the raw per-group aggregates.
	Collector *core.Collector
}

// TenantReport is the per-tenant slice of a multi-tenant session
// report, in tenant registration order.
type TenantReport struct {
	// ID names the tenant.
	ID string
	// SLO is the latency target the tenant's goodput is measured
	// against (its own, or the session target when unset).
	SLO time.Duration
	// Arrived counts every item the tenant's arrival process offered;
	// Completed the ones a device finished.
	Arrived, Completed int
	// Counters are the tenant's own events; its drops are Shed (by its
	// queue policy or the shared FIFO queue), Expired (past its SLO
	// while queued), QuotaRejected (by its quota contract) and
	// FaultDrops (lost to device failure).
	core.Counters
	// Throughput is the tenant's completion rate over the run window.
	Throughput float64
	// Latency is the tenant's per-item serving-latency distribution.
	Latency core.LatencySummary
	// Goodput is the fraction of the tenant's arrivals that completed
	// within the tenant's SLO — its drops count against it.
	Goodput float64
	// Stats exposes the raw scheduler counters for the tenant.
	Stats core.TenantStats
	// Collector exposes the raw per-tenant aggregates.
	Collector *core.Collector
}

// Report is the unified outcome of a session run.
type Report struct {
	// Targets holds one entry per device group, in group order.
	Targets []TargetReport
	// Images is the total number of completed inferences.
	Images int
	// Throughput is the aggregate steady-state rate of the whole
	// group (images over the pool's steady-state window).
	Throughput float64
	// TDPWatts and ImagesPerWatt aggregate Eq. (1) over all groups.
	TDPWatts      float64
	ImagesPerWatt float64
	// TopOneError and MeanConfidence are merged accuracy aggregates.
	TopOneError    float64
	MeanConfidence float64
	// EnergyJoules totals the metered energy of all VPU groups.
	EnergyJoules float64
	// Latency is the merged per-item serving-latency distribution
	// across all groups.
	Latency core.LatencySummary
	// SLO is the session's per-item serving deadline (0 = none).
	SLO time.Duration
	// Goodput is the fraction of arrivals that completed within the
	// SLO — shed and expired arrivals count against it. Without an
	// SLO it is the fraction of arrivals that completed at all.
	Goodput float64
	// ShedRate is the fraction of arrivals dropped at the admission
	// edge (shed by the overload policy or expired in the queue).
	ShedRate float64
	// Admission carries the ingress counters when the session ran
	// with a bounded ingress, Config.AdmissionDepth > 0 (zero value
	// otherwise).
	Admission core.AdmissionStats
	// Tenants holds one entry per declared tenant, in registration
	// order (nil for single-tenant sessions); TenantScheduler names
	// the admission-edge policy that multiplexed them.
	Tenants         []TenantReport
	TenantScheduler string
	// FaultsInjected counts the faults the session's plan drove into
	// the devices; FaultLog lists them (nil without Config.Faults).
	FaultsInjected int
	FaultLog       *fault.Log
	// Counters are the session's serving events. The fault and hedge
	// counts are the sums of the group rows; in a tenant session the
	// admission drops are the sums of the tenant rows.
	core.Counters
	// Downtime is total device-down time across all VPU groups
	// (abandoned devices charged to the end of their group's run), MTTR
	// the mean time to repair, and Uptime the device-time fraction the
	// sticks were serviceable (1 when no stick was ever down).
	Downtime, MTTR time.Duration
	Uptime         float64
	// HedgeWasteRate is HedgeWaste as a fraction of all device
	// completions (0 without hedging).
	HedgeWasteRate float64
	// Arrivals names the open-loop arrival process driving the run
	// (nil for closed-loop runs).
	Arrivals core.Arrivals
	// SimTime is the total virtual time of the run (including setup).
	SimTime time.Duration
	// Routing names the scheduling policy that distributed the work
	// (meaningful when more than one group ran; pipeline sessions are
	// serial and report cuts instead).
	Routing core.Routing
	// Pipeline is true when the session ran as a model-parallel stage
	// chain; Cuts are the effective whole-network layer boundaries
	// between its stages (degenerate cuts collapse before the run, so
	// a collapsed session reports Pipeline=false).
	Pipeline bool
	Cuts     []int
	// Job is the aggregate job (the pool's, or the single target's).
	Job *core.Job
	// Collector is the merged collector; Results holds every result
	// when the session retained them.
	Collector *core.Collector
	// Results are the retained per-inference results (nil unless the
	// session was configured with retention).
	Results []core.Result
}

func (s *Session) buildReport(job *core.Job, pool *core.Pool, merged *core.Collector, perGroup []*core.Collector) *Report {
	rep := &Report{
		Images:         job.Images,
		Throughput:     job.Throughput(),
		TopOneError:    merged.TopOneError(),
		MeanConfidence: merged.MeanConfidence(),
		Latency:        merged.Latency(),
		SLO:            s.cfg.SLO,
		Goodput:        merged.Goodput(),
		Counters:       merged.Counters,
		ShedRate:       merged.ShedRate(),
		Arrivals:       s.cfg.Arrivals,
		SimTime:        s.env.Now(),
		Routing:        s.cfg.Routing,
		Job:            job,
		Collector:      merged,
		Results:        merged.Results,
	}
	if s.admission != nil {
		rep.Admission = s.admission.Stats()
	}
	if s.tenantMux != nil {
		rep.TenantScheduler = s.cfg.Tenants.Policy.String()
		span := job.Span().Seconds()
		for i, l := range s.cfg.Tenants.Lanes {
			st := s.tenantMux.Stats(l.ID)
			c := s.perTenant[i]
			tr := TenantReport{
				ID:        l.ID,
				SLO:       s.tenantSLO(l),
				Arrived:   st.Arrived,
				Completed: c.N,
				Counters:  c.Counters,
				Latency:   c.Latency(),
				Goodput:   c.Goodput(),
				Stats:     st,
				Collector: c,
			}
			if span > 0 {
				tr.Throughput = float64(c.N) / span
			}
			rep.Tenants = append(rep.Tenants, tr)
		}
	}
	rep.FaultsInjected = s.faultLog.Count()
	rep.FaultLog = s.faultLog
	rep.MTTR = merged.MTTR()
	rep.HedgeWasteRate = merged.HedgeWasteRate()
	if s.stageMode() {
		rep.Pipeline = true
		rep.Cuts = s.Cuts()
	}
	jobs := []*core.Job{job}
	if pool != nil {
		jobs = pool.ChildJobs()
	}
	if s.pipe != nil {
		jobs = s.pipe.StageJobs()
	}
	kinds := make([]GroupKind, len(s.targets))
	for i := range kinds {
		if s.stageMode() {
			kinds[i] = s.stages[i].spec.Group.Kind
		} else {
			kinds[i] = s.cfg.Groups[i].Kind
		}
	}
	var deviceSpan, deviceDown time.Duration
	for i, t := range s.targets {
		tj := jobs[i]
		tr := TargetReport{
			Name:           t.Name(),
			Kind:           kinds[i],
			Images:         tj.Images,
			Throughput:     tj.Throughput(),
			TDPWatts:       t.TDPWatts(),
			TopOneError:    perGroup[i].TopOneError(),
			MeanConfidence: perGroup[i].MeanConfidence(),
			Latency:        perGroup[i].Latency(),
			Counters:       perGroup[i].Counters,
			MTTR:           perGroup[i].MTTR(),
			Uptime:         1,
			Job:            tj,
			Collector:      perGroup[i],
		}
		if s.cfg.SLO > 0 {
			tr.Goodput = sloHitRate(perGroup[i])
		}
		if tr.TDPWatts > 0 {
			tr.ImagesPerWatt = power.ImagesPerWatt(tr.Throughput, tr.TDPWatts)
		}
		for _, d := range s.perVPU[i] {
			tr.EnergyJoules += d.Meter().EnergyJoules(s.env.Now())
			tr.AvgPowerWatts += d.Meter().AveragePowerWatts(s.env.Now())
		}
		// Uptime: the fraction of device-time the group's sticks were
		// serviceable over its own run window, abandoned devices
		// charged through the end of the window.
		if n := len(s.perVPU[i]); n > 0 && tj.Span() > 0 {
			tr.Downtime = perGroup[i].DowntimeThrough(tj.DoneAt)
			span := time.Duration(n) * tj.Span()
			deviceSpan += span
			deviceDown += tr.Downtime
			tr.Uptime = 1 - float64(tr.Downtime)/float64(span)
			if tr.Uptime < 0 {
				tr.Uptime = 0
			}
		}
		rep.Downtime += tr.Downtime
		rep.TDPWatts += tr.TDPWatts
		rep.EnergyJoules += tr.EnergyJoules
		rep.Targets = append(rep.Targets, tr)
	}
	rep.Uptime = 1
	if deviceSpan > 0 {
		rep.Uptime = 1 - float64(deviceDown)/float64(deviceSpan)
		if rep.Uptime < 0 {
			rep.Uptime = 0
		}
	}
	if rep.TDPWatts > 0 {
		rep.ImagesPerWatt = power.ImagesPerWatt(rep.Throughput, rep.TDPWatts)
	}
	return rep
}

// sloHitRate is the fraction of c's completions that met the SLO (0
// when nothing completed): the goodput column of the latency table.
func sloHitRate(c *core.Collector) float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.WithinSLO) / float64(c.N)
}

// String renders the report as an aligned table, one row per group
// plus a totals row.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %10s %9s %8s %10s %10s\n",
		"group", "images", "img/s", "TDP(W)", "img/W", "top1-err", "energy(J)")
	row := func(name string, images int, ips, tdp, ipw, top1, joules float64) {
		fmt.Fprintf(&b, "%-18s %8d %10.1f %9.1f %8.2f %9.2f%% %10.1f\n",
			name, images, ips, tdp, ipw, top1*100, joules)
	}
	for _, t := range r.Targets {
		row(t.Name, t.Images, t.Throughput, t.TDPWatts, t.ImagesPerWatt, t.TopOneError, t.EnergyJoules)
	}
	if len(r.Targets) > 1 {
		row("total", r.Images, r.Throughput, r.TDPWatts, r.ImagesPerWatt, r.TopOneError, r.EnergyJoules)
	}
	if r.Latency.N > 0 {
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
		fmt.Fprintf(&b, "\n%-18s %10s %10s %10s %10s %11s %11s",
			"latency", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)", "queue(ms)", "service(ms)")
		if r.SLO > 0 {
			fmt.Fprintf(&b, " %8s", "goodput")
		}
		b.WriteString("\n")
		lrow := func(name string, l core.LatencySummary, goodput float64) {
			fmt.Fprintf(&b, "%-18s %10.1f %10.1f %10.1f %10.1f %11.1f %11.1f",
				name, ms(l.P50), ms(l.P95), ms(l.P99), ms(l.Max), ms(l.QueueMean), ms(l.ServiceMean))
			if r.SLO > 0 {
				fmt.Fprintf(&b, " %7.1f%%", goodput*100)
			}
			b.WriteString("\n")
		}
		for _, t := range r.Targets {
			lrow(t.Name, t.Latency, t.Goodput)
		}
		if len(r.Targets) > 1 {
			// The column is completion-based throughout (fraction of
			// served items meeting the SLO); the arrival-based goodput,
			// which also counts drops, is on the slo summary line below.
			lrow("total", r.Latency, sloHitRate(r.Collector))
		}
	}
	if r.SLO > 0 {
		fmt.Fprintf(&b, "slo %v: goodput %.1f%% of %d arrivals (shed %d, expired %d, failed %d)\n",
			r.SLO, r.Goodput*100, r.Collector.Arrivals(), r.Shed, r.Expired, r.FaultDrops)
	}
	if len(r.Tenants) > 0 {
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
		fmt.Fprintf(&b, "\n%-12s %8s %8s %8s %10s %10s %8s %6s %8s %6s\n",
			"tenant", "arrived", "served", "img/s", "p50(ms)", "p99(ms)", "goodput", "shed", "expired", "quota")
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, "%-12s %8d %8d %8.1f %10.1f %10.1f %7.1f%% %6d %8d %6d\n",
				t.ID, t.Arrived, t.Completed, t.Throughput, ms(t.Latency.P50), ms(t.Latency.P99),
				t.Goodput*100, t.Shed, t.Expired, t.QuotaRejected)
		}
		fmt.Fprintf(&b, "tenancy: %d tenant(s) under %s scheduling\n", len(r.Tenants), r.TenantScheduler)
	}
	if r.FaultsInjected > 0 || r.Outages > 0 || r.Retries > 0 || r.FaultDrops > 0 {
		fmt.Fprintf(&b, "faults: %d injected; %d outage(s), %d recovered (MTTR %v), downtime %v; %d retried, %d dropped; uptime %.2f%%\n",
			r.FaultsInjected, r.Outages, r.Recovered, r.MTTR.Round(time.Millisecond),
			r.Downtime.Round(time.Millisecond), r.Retries, r.FaultDrops, r.Uptime*100)
	}
	if r.Hedged > 0 {
		fmt.Fprintf(&b, "hedging: %d duplicate(s) launched, %d win(s), %d wasted completion(s) (%.1f%% of device work)\n",
			r.Hedged, r.HedgeWins, r.HedgeWaste, r.HedgeWasteRate*100)
	}
	if r.Admission.Shrinks > 0 {
		fmt.Fprintf(&b, "admission: effective depth shrank %d time(s) with device health\n", r.Admission.Shrinks)
	}
	fmt.Fprintf(&b, "simulated time %v", r.SimTime)
	if r.Pipeline {
		fmt.Fprintf(&b, ", pipeline cut@%v", r.Cuts)
	} else if len(r.Targets) > 1 {
		fmt.Fprintf(&b, ", routing %v", r.Routing)
	}
	if r.Arrivals != nil {
		fmt.Fprintf(&b, ", arrivals %v", r.Arrivals)
	}
	b.WriteString("\n")
	return b.String()
}
