package pipeline

import (
	"fmt"

	"repro/internal/core"
)

// checkEdge checks the ingress edge's conservation law after the run:
// every arrival the admission queue or a tenant lane counted was
// handed to a consumer, dropped (shed, expired or over quota), or is
// still queued at the edge. A ShedOldest victim counts as both
// Admitted and Shed, so the law is written over Dispatched, not
// Admitted. No arrival can be held anywhere else once Env.Run
// returns: Run panics while any process or callback waiter is still
// blocked, so no relay is left waiting to put an item it holds.
func (s *Session) checkEdge() error {
	if a := s.admission; a != nil {
		if err := admissionConserved(a.Stats(), a.Pending()); err != nil {
			return err
		}
	}
	if m := s.tenantMux; m != nil {
		ids := m.TenantIDs()
		stats := make([]core.TenantStats, len(ids))
		for i, id := range ids {
			stats[i] = m.Stats(id)
		}
		return tenantsConserved(ids, stats, m.Pending())
	}
	return nil
}

// ingressConserved checks the session law: the report accounts for
// every item the ingress released, each once, as a completion or a
// drop (Collector.Arrivals). An item lost between the ingress and the
// fleet, or counted twice, breaks it.
func ingressConserved(accounted, released int) error {
	if accounted != released {
		return fmt.Errorf("pipeline: ingress not conserved: the ingress released %d items, but the report accounts for %d (completed, shed, expired, fault-dropped or over quota)",
			released, accounted)
	}
	return nil
}

// admissionConserved checks Arrived = Dispatched + Shed + Expired +
// queued for an admission queue holding queued items.
func admissionConserved(st core.AdmissionStats, queued int) error {
	if out := st.Dispatched + st.Shed + st.Expired + queued; out != st.Arrived {
		return fmt.Errorf("pipeline: admission edge not conserved: %d arrived, but dispatched %d + shed %d + expired %d + queued %d = %d",
			st.Arrived, st.Dispatched, st.Shed, st.Expired, queued, out)
	}
	return nil
}

// tenantsConserved checks, for the lanes of a tenant mux holding
// queued items in total, Arrived = Dispatched + Shed + Expired +
// QuotaRejected + the lane's queued items. The mux reports its backlog
// only in total, so each lane's remainder must not be negative and
// the remainders must sum to queued.
func tenantsConserved(ids []string, stats []core.TenantStats, queued int) error {
	held := 0
	for i, st := range stats {
		out := st.Dispatched + st.Shed + st.Expired + st.QuotaRejected
		if out > st.Arrived {
			return fmt.Errorf("pipeline: tenant %q edge not conserved: %d arrived, but dispatched %d + shed %d + expired %d + quota %d = %d",
				ids[i], st.Arrived, st.Dispatched, st.Shed, st.Expired, st.QuotaRejected, out)
		}
		held += st.Arrived - out
	}
	if held != queued {
		return fmt.Errorf("pipeline: tenant edge not conserved: the lanes hold %d undispatched arrivals, the queues %d", held, queued)
	}
	return nil
}

// mergedConserved checks the precondition of the merged collector's
// latency view: every result it counted was sunk into exactly one of
// its parts, so their stores hold exactly its pairs. A result sunk
// twice into a group, or into the merged collector alone, breaks it.
func mergedConserved(merged *core.Collector, parts []*core.Collector) error {
	n := 0
	for _, p := range parts {
		n += p.N
	}
	if n != merged.N {
		return fmt.Errorf("pipeline: merged latency view not conserved: the merged collector counted %d results, its parts %d", merged.N, n)
	}
	return nil
}
