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
// returns: Run panics while any process is still blocked, so no pump
// is left parked in a Put with an item in hand.
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
