package core

import (
	"math"
	"time"

	"repro/internal/field"
	"repro/internal/sim"
	"repro/internal/stats"
)

// HedgeNever is a Trigger value that never fires: hedging is armed but
// no duplicate is ever launched. A run configured with HedgeNever is
// bit-identical to one with hedging disabled — the trigger overflows
// every deadline computation, so no timer is ever scheduled and the
// simulation's event sequence is untouched. It is the control
// configuration the hedge experiments baseline against.
const HedgeNever = time.Duration(math.MaxInt64)

// DefaultHedgeMinSamples is the completion-sample count a
// quantile-derived trigger waits for before trusting the estimate
// (HedgeConfig.MinSamples zero value).
const DefaultHedgeMinSamples = 20

// HedgeConfig configures speculative hedged requests on a Pool or a
// multi-stick VPUTarget: when a dispatched item's age (virtual time
// since it left the dispatcher, queueing included) exceeds the
// trigger, a duplicate is launched on a different healthy child, the
// first completion wins, and the loser is cancelled while still
// queued or discarded on completion. The zero value disables hedging
// entirely — no timers are scheduled and runs are bit-identical to
// pre-hedging behavior. All decisions run in virtual time off
// deterministic state, so hedged runs are reproducible bit for bit.
type HedgeConfig struct {
	// Trigger is the fixed in-flight age that launches a duplicate.
	// 0 disables the fixed trigger (hedging is then quantile-only, or
	// off when Quantile is 0 too); HedgeNever arms hedging without ever
	// firing. With Quantile set, Trigger acts as a floor under the
	// estimate.
	Trigger time.Duration
	// Quantile, when in (0, 1), derives the trigger from the live
	// distribution of observed completion ages (dispatch to first
	// completion): an item older than the q-quantile of everything
	// completed so far is hedged. The quantile is exact, nearest-rank
	// (stats.Sample's convention) and streaming: a
	// stats.QuantileTracker keeps it at O(log n) per completion and
	// O(1) per dispatch.
	// Until MinSamples completions have been observed the fixed
	// Trigger applies alone (no hedging during warmup when Trigger is
	// 0). 0 disables the quantile trigger.
	Quantile float64
	// MinSamples is how many completions the quantile estimate needs
	// before it is trusted (0 = DefaultHedgeMinSamples).
	MinSamples int
	// Budget bounds hedge volume: duplicates may be in flight for at
	// most this fraction of dispatched items (e.g. 0.05 = one hedge
	// per 20 dispatches, the classic tail-at-scale budget). 0 means
	// unlimited. A trigger that fires over budget is skipped, not
	// deferred.
	Budget float64
	// DynamicBudget scales Budget by the fleet's observed headroom:
	// the effective budget is Budget × (1 − utilization), where
	// utilization is the fraction of the fleet's in-flight capacity
	// (queue slots plus execution slots, supplied by the owning Pool
	// or VPUTarget) occupied by tracked items. Lightly loaded, nearly
	// the whole Budget is available; near saturation the effective
	// budget shrinks toward zero and hedging stops entirely — a
	// duplicate launched into a full fleet can only add queueing, so
	// the classic hedge-storm feedback (duplicates add load, load adds
	// latency, latency fires more triggers) is cut at its source.
	// Requires Budget > 0.
	DynamicBudget bool
	// OnHedge observes every launched duplicate with the child (pool
	// group or VPU worker) index that received it.
	OnHedge func(item Item, child int, at time.Duration)
	// OnWin observes every completion where the duplicate finished
	// before the primary copy.
	OnWin func(item Item, child int, at time.Duration)
	// OnWaste observes every losing completion that was discarded
	// after a device fully served it (a cancelled-in-queue loser costs
	// nothing and is not waste).
	OnWaste func(item Item, child int, at time.Duration)
}

// Enabled reports whether any trigger is configured.
func (hc HedgeConfig) Enabled() bool { return hc.Trigger > 0 || hc.Quantile > 0 }

// Validate checks the configuration's shape. Errors are field.Errors
// with paths relative to the config ("Budget").
func (hc HedgeConfig) Validate() error {
	if hc.Trigger < 0 {
		return field.Errorf("Trigger", "negative trigger %v", hc.Trigger)
	}
	if !(hc.Quantile >= 0 && hc.Quantile < 1) {
		return field.Errorf("Quantile", "quantile %g (need 0 <= q < 1)", hc.Quantile)
	}
	if hc.MinSamples < 0 {
		return field.Errorf("MinSamples", "negative warmup %d", hc.MinSamples)
	}
	if !(hc.Budget >= 0) || math.IsInf(hc.Budget, 1) {
		return field.Errorf("Budget", "budget %g (need finite >= 0)", hc.Budget)
	}
	if hc.DynamicBudget && hc.Budget == 0 {
		return field.Errorf("DynamicBudget", "needs a positive budget")
	}
	return nil
}

// minSamples returns the quantile warmup threshold.
func (hc HedgeConfig) minSamples() int {
	if hc.MinSamples > 0 {
		return hc.MinSamples
	}
	return DefaultHedgeMinSamples
}

// hedgeEntry tracks one in-flight item's hedge state. Entries are
// recycled through the hedger's freelist (the kernel is
// single-threaded, so no sync.Pool is needed): fireFn is built once
// per physical entry and survives recycling, so the steady-state item
// lifecycle — track, timer arm, completion, release — allocates
// nothing.
type hedgeEntry struct {
	item       Item
	dispatched time.Duration
	primary    int // child the primary copy was dispatched to
	hedged     bool
	hedgeChild int  // child the duplicate landed on (when hedged)
	done       bool // first completion delivered; any later copy is a loser
	timer      sim.Timer
	fireFn     func()
}

// hedger is the shared hedged-request engine behind Pool and
// VPUTarget: it arms a cancellable timer per dispatched item,
// launches a duplicate on a different child when the trigger fires,
// and deduplicates completions so exactly one result per item reaches
// the sink. A nil *hedger is hedging off: track, settled, complete,
// copyLost, filterLost and setBudget accept it, so dispatchers call
// them unguarded. The dealer that builds it supplies the two
// queue-specific callbacks:
// redispatch places a duplicate on a child other than exclude
// (non-blocking — it runs inside timer callbacks) and reports where
// it landed; cancelCopy withdraws a still-queued copy from a child's
// feed. Everything runs in virtual time on the single-threaded
// kernel, so no locking is needed and hedged runs stay deterministic.
// A quantile trigger reads an exact streaming nearest-rank quantile
// of the completion ages: O(log n) per completion, O(1) per dispatch.
type hedger struct {
	env        *sim.Env
	cfg        HedgeConfig
	ages       *stats.QuantileTracker // completion ages (seconds, dispatch → first completion); nil without a quantile trigger
	entries    map[int]*hedgeEntry
	free       []*hedgeEntry // recycled entries (single-threaded freelist)
	tracked    int           // primary dispatches seen (the budget denominator)
	launched   int           // duplicates issued
	inflight   int           // tracked items dispatched but not yet first-completed or lost
	capacity   int           // owner-supplied in-flight capacity (queue + exec slots); 0 = unknown
	redispatch func(item Item, exclude int) (int, bool)
	cancelCopy func(index, child int) bool
}

// newHedger builds the engine, or returns nil (the hedging-off
// engine) when no trigger is configured.
// capacity is the owner's in-flight ceiling (queue slots plus
// execution slots across the fleet), the denominator of the
// DynamicBudget utilization estimate; 0 disables the dynamic scaling
// and the configured Budget applies as a fixed cap.
func newHedger(env *sim.Env, cfg HedgeConfig, capacity int, redispatch func(Item, int) (int, bool), cancelCopy func(index, child int) bool) *hedger {
	if !cfg.Enabled() {
		return nil
	}
	h := &hedger{
		env:        env,
		cfg:        cfg,
		capacity:   capacity,
		entries:    map[int]*hedgeEntry{},
		redispatch: redispatch,
		cancelCopy: cancelCopy,
	}
	if cfg.Quantile > 0 {
		h.ages = stats.NewQuantileTracker(cfg.Quantile)
	}
	return h
}

// getEntry takes an entry from the freelist, or builds a fresh one
// with its permanent fire closure (the one allocation an entry ever
// makes, amortized away by recycling).
func (h *hedger) getEntry() *hedgeEntry {
	if n := len(h.free); n > 0 {
		e := h.free[n-1]
		h.free = h.free[:n-1]
		return e
	}
	e := &hedgeEntry{}
	e.fireFn = func() {
		e.timer = 0
		h.fire(e)
	}
	return e
}

// putEntry releases an entry back to the freelist, dropping every
// reference it holds (the Item may pin a tensor) but keeping its
// permanent fire closure. The caller must have cancelled any armed
// timer first — a recycled entry with a live timer would fire for the
// wrong item.
func (h *hedger) putEntry(e *hedgeEntry) {
	fn := e.fireFn
	*e = hedgeEntry{fireFn: fn}
	h.free = append(h.free, e)
}

// release removes an entry from tracking and recycles it.
func (h *hedger) release(index int, e *hedgeEntry) {
	delete(h.entries, index)
	h.putEntry(e)
}

// triggerFor returns the current hedge trigger: the live quantile once
// warm (floored at the fixed Trigger), the fixed Trigger otherwise.
// ok=false means no trigger applies yet.
func (h *hedger) triggerFor() (time.Duration, bool) {
	if h.ages != nil && h.ages.N() >= h.cfg.minSamples() {
		d := time.Duration(h.ages.Quantile() * float64(time.Second))
		if d < h.cfg.Trigger {
			d = h.cfg.Trigger
		}
		if d > 0 {
			return d, true
		}
	}
	if h.cfg.Trigger > 0 {
		return h.cfg.Trigger, true
	}
	return 0, false
}

// track records one primary dispatch and arms its hedge timer. A
// re-dispatch of an already-tracked item (an orphan reclaimed from a
// dead child) just moves the primary; its original timer keeps
// running so the age stays measured from first dispatch.
func (h *hedger) track(item Item, child int, now time.Duration) {
	if h == nil {
		return
	}
	if e, ok := h.entries[item.Index]; ok {
		if !e.done {
			e.primary = child
		}
		return
	}
	h.tracked++
	h.inflight++
	e := h.getEntry()
	e.item, e.dispatched, e.primary = item, now, child
	h.entries[item.Index] = e
	trigger, ok := h.triggerFor()
	if !ok {
		return
	}
	if trigger >= HedgeNever-now {
		// The trigger lies at (or beyond) the end of representable
		// virtual time (HedgeNever, or an overflow): never fires, and
		// scheduling it would let an uncancelled timer drag the clock
		// to the horizon.
		return
	}
	e.timer = h.env.TimerAt(now+trigger, e.fireFn)
}

// budgetLimit returns the hedge-volume cap in force right now: the
// configured Budget, scaled down by fleet utilization when the
// dynamic budget is on. Everything it reads is deterministic kernel
// state, so hedged runs stay reproducible bit for bit.
func (h *hedger) budgetLimit() float64 {
	limit := h.cfg.Budget
	if h.cfg.DynamicBudget && h.capacity > 0 {
		util := float64(h.inflight) / float64(h.capacity)
		if util > 1 {
			util = 1
		}
		limit *= 1 - util
	}
	return limit
}

// fire launches the duplicate for one aged item, if it is still in
// flight, within budget, and a different child has queue room.
func (h *hedger) fire(e *hedgeEntry) {
	if e.done || e.hedged {
		return
	}
	if h.cfg.Budget > 0 && float64(h.launched+1) > h.budgetLimit()*float64(h.tracked) {
		return
	}
	child, ok := h.redispatch(e.item, e.primary)
	if !ok {
		return // no healthy child with room: skip, hedging is speculative
	}
	e.hedged = true
	e.hedgeChild = child
	h.launched++
	if h.cfg.OnHedge != nil {
		h.cfg.OnHedge(e.item, child, h.env.Now())
	}
}

// complete deduplicates one completion from child: it reports whether
// the result should be delivered to the sink. The first completion of
// an item wins (its age feeds the quantile estimate, and the losing
// copy is withdrawn from its feed queue when still there); any later
// completion of the same item is a discarded loser, counted as waste.
func (h *hedger) complete(index, child int, now time.Duration) bool {
	if h == nil {
		return true
	}
	e, ok := h.entries[index]
	if !ok {
		return true // untracked (dispatched before hedging armed): deliver
	}
	if e.done {
		// Out of the map before the callback (which may re-enter via
		// settled), recycled only after it (it still reads e.item).
		delete(h.entries, index)
		if h.cfg.OnWaste != nil {
			h.cfg.OnWaste(e.item, child, now)
		}
		h.putEntry(e)
		return false
	}
	e.done = true
	h.inflight--
	if e.timer != 0 {
		h.env.Cancel(e.timer)
		e.timer = 0
	}
	if h.ages != nil {
		h.ages.Add(max(now-e.dispatched, 0).Seconds())
	}
	if !e.hedged {
		h.release(index, e)
		return true
	}
	loser := e.hedgeChild
	if child == e.hedgeChild {
		loser = e.primary
		if h.cfg.OnWin != nil {
			h.cfg.OnWin(e.item, child, now)
		}
	}
	if h.cancelCopy != nil && h.cancelCopy(index, loser) {
		h.release(index, e) // loser reclaimed before service: no waste
	}
	return true
}

// settled reports whether the item was already served through another
// copy — dispatchers consult it before re-delivering reclaimed
// orphans, retries or drops, so a leftover duplicate is quietly
// forgotten instead of re-served, double-dropped or counted as
// stranded work. A settled entry is reclaimed on the way out.
func (h *hedger) settled(index int) bool {
	if h == nil {
		return false
	}
	e, ok := h.entries[index]
	if !ok {
		return false
	}
	if e.done {
		h.release(index, e)
		return true
	}
	return false
}

// filterLost reduces a reclaimed-orphan list to the items whose loss
// should actually be counted, in place: copies of an already-delivered
// item are dropped silently, and a hedged item with both of its copies
// stranded in the list is kept exactly once — one item, one loss
// (copyLost arbitrates each copy). Dispatchers call it after the join,
// when nothing is in flight anymore.
func (h *hedger) filterLost(items []Item) []Item {
	if h == nil {
		return items
	}
	kept := items[:0]
	for _, it := range items {
		if h.copyLost(it.Index, -1) {
			kept = append(kept, it)
		}
	}
	return kept
}

// copyLost records that one copy of the item was lost to a device
// failure, reporting whether the loss should be counted as a dropped
// item. Three cases: the item was already delivered through its other
// copy (no loss — the entry is reclaimed); the item is hedged and the
// other copy is still in flight (no loss yet — the survivor becomes
// the only copy, and a later loss of it does count); or this was the
// only copy (the loss stands — the entry is reclaimed and its armed
// hedge timer cancelled, so a recorded drop can never be resurrected
// into a double-counted completion). child is the index the lost copy
// was on, or -1 when the caller cannot tell which copy died.
func (h *hedger) copyLost(index, child int) bool {
	if h == nil {
		return true
	}
	e, ok := h.entries[index]
	if !ok {
		return true
	}
	if e.done {
		h.release(index, e)
		return false
	}
	if e.hedged {
		e.hedged = false
		if child >= 0 && child == e.primary {
			e.primary = e.hedgeChild
		}
		return false
	}
	if e.timer != 0 {
		h.env.Cancel(e.timer)
		e.timer = 0
	}
	h.inflight--
	h.release(index, e)
	return true
}

// setBudget replaces the hedge-volume budget from now on (0 =
// unlimited). The budget is consulted when a trigger fires, so only
// fires after the change see the new cap; armed timers, the launch
// counter and the quantile estimate are untouched.
func (h *hedger) setBudget(b float64) {
	if h != nil {
		h.cfg.Budget = b
	}
}
