package pipeline

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ingress builds the session's ingress edge, innermost first: the base
// source (Config.Items, else the stream, else the dataset's first
// Images), the arrival process, admission and the tenant lanes.
// It returns the source the fleet reads, and sets s.released to what
// the edge releases to the fleet (ingressConserved): the lanes' summed
// arrivals, the arrival source's arrivals, a stream's pushes, or a
// finite base's items at the start of the run.
func (s *Session) ingress() (core.Source, error) {
	var src core.Source
	finite := func(n int) func() int { return func() int { return n } }
	switch {
	case len(s.cfg.Items) > 0:
		src, s.released = core.NewSliceSource(s.cfg.Items), finite(len(s.cfg.Items))
	case s.stream != nil:
		src, s.released = s.stream, s.stream.Pushed
	default:
		dsrc, err := core.NewDatasetSource(s.ds, 0, s.cfg.Images)
		if err != nil {
			return nil, fmt.Errorf("pipeline: source: %w", err)
		}
		src, s.released = dsrc, finite(dsrc.Remaining())
	}

	if s.cfg.Arrivals != nil {
		asrc, err := core.NewArrivalSource(s.env, src, s.cfg.Arrivals,
			rng.New(s.cfg.Seed).Derive(cmp.Or(s.cfg.ArrivalLabel, "arrivals")))
		if err != nil {
			return nil, fmt.Errorf("pipeline: arrivals: %w", err)
		}
		src, s.released = asrc, asrc.Arrived
	}

	if s.cfg.AdmissionDepth > 0 {
		aq, err := core.NewAdmissionQueue(s.env, src, core.AdmissionOptions{
			Depth:    s.cfg.AdmissionDepth,
			Policy:   s.cfg.AdmissionPolicy,
			Deadline: s.cfg.SLO, // work past the SLO is not worth a device's time
			MinDepth: s.cfg.AdmissionMinDepth,
			OnDrop: func(_ core.Item, reason core.DropReason, _ time.Duration) {
				s.merged.NoteDrop(reason)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: admission: %w", err)
		}
		s.admission = aq
		src = aq
	}

	lanes := s.cfg.Tenants.Lanes
	if len(lanes) == 0 {
		return src, nil
	}
	// The tenant lanes as the mux runs them: a Deadline of 0 inherits
	// the session SLO, so per-tenant goodput and expiry reflect each
	// tenant's own contract. The caller's lanes are not written.
	tenants := s.cfg.Tenants
	tenants.Lanes = make([]core.TenantLane, len(lanes))
	s.perTenant = make([]*core.Collector, len(lanes))
	s.perTenantSinks = make([]func(core.Result), len(lanes))
	s.tenantIdx = make(map[string]int, len(lanes))
	for i, l := range lanes {
		l.Deadline = s.tenantSLO(l)
		tenants.Lanes[i] = l
		c := core.NewCollector(false)
		c.SetSLO(l.Deadline)
		s.perTenant[i] = c
		s.perTenantSinks[i] = c.Sink()
		s.tenantIdx[l.ID] = i
	}
	onDrop := func(item core.Item, reason core.DropReason, _ time.Duration) {
		s.merged.NoteDrop(reason)
		if i, ok := s.tenantIdx[item.Tenant]; ok {
			s.perTenant[i].NoteDrop(reason)
		}
	}
	mux, err := core.NewTenantMux(s.env, src, tenants, rng.New(s.cfg.Seed).Derive("tenants"), onDrop)
	if err != nil {
		return nil, fmt.Errorf("pipeline: tenants: %w", err)
	}
	s.tenantMux = mux
	s.released = func() int {
		n := 0
		for _, id := range mux.TenantIDs() {
			n += mux.Stats(id).Arrived
		}
		return n
	}
	return mux, nil
}

// drainOnFailure keeps a failed fleet from losing or deadlocking what
// the edge still holds. Once every device has failed, nothing reads
// it: a finite source's remaining items are never taken, an arrival
// source's later arrivals stay queued, a bounded stream's producer
// parks in Push, and an admission or tenant relay waits on its full
// queue (under Block in the admit, under the shed policies in the
// end-of-stream post). So when the job stops with an error, a last
// consumer reads the edge to its end and counts every item as a fault
// drop. The edge dispatches each item once, so checkEdge and the
// ingress law still balance. A job that ends cleanly has drained the
// edge already.
func (s *Session) drainOnFailure(job *core.Job, edge core.Source) {
	job.OnFinish(func(*sim.Proc) {
		if job.Err == nil {
			return
		}
		s.env.Process("edge-drain", func(p *sim.Proc) {
			for {
				item, ok := edge.Next(p)
				if !ok {
					return
				}
				s.merged.NoteDrop(core.DropFailed)
				s.tenantFault(item)
			}
		})
	})
}
