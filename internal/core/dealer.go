package core

import (
	"fmt"

	"repro/internal/sim"
)

// feedSentinel marks end-of-feed on a child queue. Real items use
// Index >= 0 (folder/dataset/stream indices); -1 is the framework-wide
// shutdown convention.
const feedSentinel = -1

// dealer is the dealing protocol behind both dispatchers: VPUTarget's
// main process dealing to one worker queue per stick (Fig. 4), and
// Pool dealing to one feed per child target. It deals source items
// onto bounded per-child feeds, re-deals the items reclaimed from a
// child that stopped consuming ahead of the source, closes the feeds
// when the source drains, and, with hedging on, owns the hedger and
// places its duplicates. The owner supplies only what differs: where
// an item goes (place), which children have stopped (gone), which are
// unhealthy (down, Pool only), and what a lost item costs (it reads
// lost after joining its children).
type dealer struct {
	feeds []*sim.Queue[Item]
	// orphans are the items reclaimed from gone children, re-dealt
	// ahead of the source; after the join, the stranded ones.
	orphans []Item
	// dealt counts the copies put on each feed: dealt items and hedge
	// duplicates in, withdrawn duplicates out (Pool's scored routings
	// read it).
	dealt []int
	// dispatching is true while run deals. Hedge duplicates launch
	// only then: one placed behind an end-of-feed sentinel would
	// never be served.
	dispatching bool
	// hedge is the hedged-request engine (nil when hedging is off).
	hedge *hedger

	// place puts the item on a live child's feed and reports which
	// (ok=false when no child is left); k counts the items taken so
	// far, settled duplicates included.
	place func(p *sim.Proc, item Item, k int) (int, bool)
	// gone reports whether child j has stopped consuming its feed.
	gone func(j int) bool
	// down, when set, marks live children with no healthy device: put
	// prefers the others and hedge duplicates avoid them.
	down []bool
}

// newDealer builds n feeds named name0, name1, ..., each depth items
// deep, and the hedger over them when hedge is enabled. capacity is
// the fleet's in-flight ceiling, the hedger's DynamicBudget
// denominator.
func newDealer(env *sim.Env, name string, n, depth int, gone func(j int) bool, hedge HedgeConfig, capacity int) *dealer {
	d := &dealer{feeds: make([]*sim.Queue[Item], n), dealt: make([]int, n), gone: gone}
	for i := range d.feeds {
		d.feeds[i] = sim.NewQueue[Item](env, fmt.Sprintf("%s%d", name, i), depth)
	}
	if hedge.Enabled() {
		d.hedge = newHedger(env, hedge, capacity, d.redispatch, d.cancelCopy)
	}
	return d
}

// run deals the source: reclaimed orphans first, then the next source
// item, until the source drains or no child is left. It then posts
// the end-of-feed sentinel to every live child.
func (d *dealer) run(p *sim.Proc, src Source) {
	d.dispatching = true
	k := 0
	more := true
	for {
		var item Item
		if len(d.orphans) > 0 {
			item = d.orphans[0]
			d.orphans = d.orphans[1:]
		} else if !more {
			break
		} else if item, more = src.Next(p); !more {
			continue // re-deal what was reclaimed while Next blocked
		}
		if !d.deliver(p, item, k) {
			break
		}
		k++
	}
	// Dealing ends before the sentinels post: a hedge timer firing
	// while a sentinel Put blocks must not slip a duplicate behind a
	// sentinel already delivered to another feed.
	d.dispatching = false
	d.shutdown(p)
}

// deliver deals one item and reports whether any child is left. A
// reclaimed duplicate of an item already served through its other
// copy is forgotten, not re-served. With no live child left the
// in-hand item joins the orphans, so the loss accounting after the
// join sees it.
func (d *dealer) deliver(p *sim.Proc, item Item, k int) bool {
	if d.hedge.settled(item.Index) {
		return true
	}
	j, ok := d.place(p, item, k)
	if !ok {
		d.orphans = append(d.orphans, item)
		return false
	}
	d.dealt[j]++
	d.hedge.track(item, j, p.Now())
	// The child may have stopped while place blocked on its full feed;
	// reclaim everything stranded there.
	if d.gone(j) {
		d.reclaim(j)
	}
	return true
}

// put blocks the item onto the first live child's feed scanning from
// home and reports which child received it (ok=false when none is
// live). Healthy children are preferred; when every live child is
// down the item is queued on the first live one anyway (its bounded
// feed absorbs a little work until someone rejoins) rather than
// stalling the deal.
func (d *dealer) put(p *sim.Proc, item Item, home int) (int, bool) {
	n := len(d.feeds)
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < n; off++ {
			j := (home + off) % n
			if d.gone(j) || pass == 0 && d.down != nil && d.down[j] {
				continue
			}
			d.feeds[j].Put(p, item)
			return j, true
		}
	}
	return 0, false
}

// shutdown posts the end-of-feed sentinel to every live child.
func (d *dealer) shutdown(p *sim.Proc) {
	for j, q := range d.feeds {
		if !d.gone(j) {
			q.Put(p, Item{Index: feedSentinel})
		}
	}
}

// reclaim moves everything queued on child j's feed to the orphans.
func (d *dealer) reclaim(j int) {
	d.orphans = append(d.orphans, drainFeed(d.feeds[j])...)
}

// lost returns the orphans left after the join whose loss counts:
// a copy of an item served through its other copy is not lost, and an
// item with both copies stranded is lost once.
func (d *dealer) lost() []Item {
	d.orphans = d.hedge.filterLost(d.orphans)
	return d.orphans
}

// redispatch places a hedge duplicate on the first live, healthy child
// after exclude with feed room. It never blocks: it runs inside hedge
// timer callbacks.
func (d *dealer) redispatch(item Item, exclude int) (int, bool) {
	if !d.dispatching {
		return 0, false
	}
	n := len(d.feeds)
	for off := 1; off < n; off++ {
		j := (exclude + off) % n
		if d.gone(j) || d.down != nil && d.down[j] {
			continue
		}
		if d.feeds[j].TryPut(item) {
			d.dealt[j]++
			return j, true
		}
	}
	return 0, false
}

// cancelCopy withdraws a still-queued copy of the item from child's
// feed. A gone child's feed was emptied when it stopped.
func (d *dealer) cancelCopy(index, child int) bool {
	if child < 0 || child >= len(d.feeds) || d.gone(child) {
		return false
	}
	_, ok := d.feeds[child].RemoveWhere(func(it Item) bool { return it.Index == index })
	if ok {
		// The withdrawn copy will never complete: without this the
		// child would carry a phantom outstanding item in the routing
		// scores forever.
		d.dealt[child]--
	}
	return ok
}

// drainFeed empties a stopped child's feed, waking any blocked putter,
// and returns the stranded work items (sentinels are discarded).
func drainFeed(q *sim.Queue[Item]) []Item {
	var items []Item
	for {
		item, ok := q.TryGet()
		if !ok {
			return items
		}
		if item.Index != feedSentinel {
			items = append(items, item)
		}
	}
}
