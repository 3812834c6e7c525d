package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestEdgeConservation checks the end-of-run edge laws as pure
// functions: balanced counters pass, whether the queue drained or
// not, and every deliberately inconsistent value fails with a message
// naming the broken law. A ShedOldest victim is counted as admitted
// and shed, so Admitted never enters the law.
func TestEdgeConservation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		st      core.AdmissionStats
		queued  int
		wantErr string
	}{
		{name: "drained", st: core.AdmissionStats{Arrived: 10, Admitted: 8, Dispatched: 6, Shed: 2, Expired: 2}},
		{name: "shed-oldest victims counted as admitted", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 7, Shed: 3}},
		{name: "items left queued", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 7}, queued: 3},
		{name: "an arrival lost", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 9},
			wantErr: "admission edge not conserved: 10 arrived, but dispatched 9 + shed 0 + expired 0 + queued 0 = 9"},
		{name: "an item counted twice", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 10, Expired: 1},
			wantErr: "= 11"},
	} {
		t.Run("admission/"+tc.name, func(t *testing.T) {
			checkErr(t, admissionConserved(tc.st, tc.queued), tc.wantErr)
		})
	}

	for _, tc := range []struct {
		name    string
		stats   []core.TenantStats
		queued  int
		wantErr string
	}{
		{name: "drained", stats: []core.TenantStats{
			{Arrived: 10, Admitted: 8, Dispatched: 5, Expired: 1, Shed: 2, QuotaRejected: 2},
			{Arrived: 4, Admitted: 4, Dispatched: 4},
		}},
		{name: "items left queued", queued: 3, stats: []core.TenantStats{
			{Arrived: 10, Admitted: 10, Dispatched: 8},
			{Arrived: 4, Admitted: 4, Dispatched: 3},
		}},
		{name: "a lane over-counted", stats: []core.TenantStats{
			{Arrived: 10, Admitted: 10, Dispatched: 10, Shed: 1},
		}, wantErr: `tenant "t0" edge not conserved: 10 arrived, but dispatched 10 + shed 1 + expired 0 + quota 0 = 11`},
		{name: "the queues disagree", queued: 1, stats: []core.TenantStats{
			{Arrived: 10, Admitted: 10, Dispatched: 10},
		}, wantErr: "the lanes hold 0 undispatched arrivals, the queues 1"},
		{name: "one lane's surplus hides another's loss", queued: 1, stats: []core.TenantStats{
			{Arrived: 5, Dispatched: 3},
			{Arrived: 5, Dispatched: 6},
		}, wantErr: `tenant "t1"`},
	} {
		t.Run("tenants/"+tc.name, func(t *testing.T) {
			ids := make([]string, len(tc.stats))
			for i := range ids {
				ids[i] = fmt.Sprint("t", i)
			}
			checkErr(t, tenantsConserved(ids, tc.stats, tc.queued), tc.wantErr)
		})
	}
}

// checkErr requires err to be nil when want is empty, else to contain
// want.
func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("unexpected error: %v", err)
	case want != "" && err == nil:
		t.Errorf("no error, want one containing %q", want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("error %q does not contain %q", err, want)
	}
}
