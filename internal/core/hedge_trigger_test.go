package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// referenceTrigger is the quantile-trigger rule stated over a plain
// stats.Sample of every completion age: the fixed Trigger alone until
// MinSamples completions, then the q-quantile floored at Trigger, and
// no trigger at all while cold with Trigger 0.
func referenceTrigger(ages *stats.Sample, cfg HedgeConfig) (time.Duration, bool) {
	if cfg.Quantile > 0 && ages.N() >= cfg.minSamples() {
		d := max(time.Duration(ages.Quantile(cfg.Quantile)*float64(time.Second)), cfg.Trigger)
		if d > 0 {
			return d, true
		}
	}
	if cfg.Trigger > 0 {
		return cfg.Trigger, true
	}
	return 0, false
}

// testAge is a deterministic completion age with heavy ties and some
// zero ages (an item completed the instant it was dispatched).
func testAge(k int) time.Duration {
	return time.Duration((k*7919)%13) * 250 * time.Microsecond
}

// TestHedgerTriggerMatchesSampleRule drives a quantile-hedged hedger
// through track/complete and checks, before the first completion and
// after every one, that triggerFor agrees with the reference rule
// over a stats.Sample of the same ages: warmup gate, Trigger floor,
// and ok=false while cold without a fixed trigger.
func TestHedgerTriggerMatchesSampleRule(t *testing.T) {
	for _, floor := range []time.Duration{0, 3 * time.Millisecond} {
		cfg := HedgeConfig{Quantile: 0.5, MinSamples: 6, Trigger: floor}
		t.Run(fmt.Sprintf("trigger=%v", floor), func(t *testing.T) {
			h := newHedger(sim.NewEnv(), cfg, 0, func(Item, int) (int, bool) { return 1, true }, nil)
			var ref stats.Sample
			floored, above := 0, 0
			check := func(k int) {
				t.Helper()
				got, ok := h.triggerFor()
				want, wantOK := referenceTrigger(&ref, cfg)
				if got != want || ok != wantOK {
					t.Fatalf("after %d completions: triggerFor = %v, %v; reference %v, %v",
						k, got, ok, want, wantOK)
				}
				if ok && k >= cfg.MinSamples {
					if got == floor {
						floored++
					} else {
						above++
					}
				}
			}
			check(0)
			for k := 0; k < 200; k++ {
				// Ages drift upward so the median crosses the floor.
				dispatched := time.Duration(k) * time.Millisecond
				age := testAge(k) + time.Duration(k/40)*time.Millisecond
				h.track(Item{Index: k}, 0, dispatched)
				if !h.complete(k, 0, dispatched+age) {
					t.Fatalf("item %d: first completion not delivered", k)
				}
				ref.Add(age.Seconds())
				check(k + 1)
			}
			// Both sides of the floor must have been exercised.
			if above == 0 || (floor > 0 && floored == 0) {
				t.Errorf("warm triggers: %d at the floor, %d above it", floored, above)
			}
		})
	}
}

// BenchmarkHedgeTrigger times one completion's share of the quantile
// trigger, recording the age and reading the trigger the next
// dispatch uses, after 1k and 100k prior completions. The cost should
// not grow with history.
func BenchmarkHedgeTrigger(b *testing.B) {
	for _, history := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("history=%dk", history/1000), func(b *testing.B) {
			h := newHedger(sim.NewEnv(), HedgeConfig{Quantile: 0.95}, 0, nil, nil)
			for k := 0; k < history; k++ {
				h.ages.Add(testAge(k).Seconds())
			}
			h.triggerFor()
			k := history
			for b.Loop() {
				h.ages.Add(testAge(k).Seconds())
				h.triggerFor()
				k++
			}
		})
	}
}
