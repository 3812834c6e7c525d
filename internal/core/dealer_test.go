package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDealerRoute: route places an item on four one-deep feeds. Gone
// children are never candidates and down ones only when every live
// child is down; candidates run in rotation from home or, with a
// score, by ascending score with ties broken by index. With spill the
// first candidate with room takes the item; otherwise, or when every
// candidate is full, route blocks on the first until its feed drains
// (a drainer empties the full feeds at 1 ms). A warm call allocates
// nothing on either order.
func TestDealerRoute(t *testing.T) {
	const n = 4
	cases := []struct {
		name             string
		gone, down, full []int
		home             int
		scores           []float64
		spill            bool
		want             int
		ok, blocks       bool
	}{
		{name: "rotation from home", home: 2, want: 2, ok: true},
		{name: "rotation skips gone and down", home: 1, gone: []int{1}, down: []int{2}, want: 3, ok: true},
		{name: "rotation blocks on a full home", home: 1, full: []int{1}, want: 1, ok: true, blocks: true},
		{name: "rotation spills past full feeds", home: 1, full: []int{1, 2}, spill: true, want: 3, ok: true},
		{name: "spill blocks on the first when all are full", home: 3, full: []int{0, 1, 2, 3}, spill: true, want: 3, ok: true, blocks: true},
		{name: "down is passed over for a full feed", home: 0, down: []int{1}, full: []int{0, 2, 3}, spill: true, want: 0, ok: true, blocks: true},
		{name: "score order", scores: []float64{3, 1, 2, 0}, gone: []int{3}, want: 1, ok: true},
		{name: "score blocks on the best", scores: []float64{3, 1, 2, 0}, full: []int{3}, want: 3, ok: true, blocks: true},
		{name: "score spills down the order", scores: []float64{3, 1, 2, 0}, full: []int{3, 1}, spill: true, want: 2, ok: true},
		{name: "score ties by index, not home", home: 3, scores: []float64{1, 0, 0, 0}, want: 1, ok: true},
		{name: "all live down falls back to live", home: 0, gone: []int{0}, down: []int{0, 1, 2, 3}, want: 1, ok: true},
		{name: "all live down, by score", scores: []float64{2, 1, 0, 3}, gone: []int{2}, down: []int{0, 1, 2, 3}, want: 1, ok: true},
		{name: "no live child", gone: []int{0, 1, 2, 3}, down: []int{1}, spill: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			gone := make([]bool, n)
			for _, j := range tc.gone {
				gone[j] = true
			}
			d := newDealer(env, "feed", n, 1, func(j int) bool { return gone[j] }, HedgeConfig{}, 0)
			if tc.down != nil {
				d.down = make([]bool, n)
				for _, j := range tc.down {
					d.down[j] = true
				}
			}
			for _, j := range tc.full {
				d.feeds[j].TryPut(Item{Index: 100 + j})
			}
			var score func(int) float64
			if tc.scores != nil {
				score = func(i int) float64 { return tc.scores[i] }
			}
			got, ok, at := -1, false, time.Duration(-1)
			env.Process("dealer", func(p *sim.Proc) {
				got, ok = d.route(p, Item{Index: 7}, tc.home, score, tc.spill)
				at = p.Now()
			})
			env.Process("drainer", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				for _, j := range tc.full {
					d.feeds[j].TryGet()
				}
			})
			env.Run()
			if ok != tc.ok || ok && got != tc.want {
				t.Fatalf("route = %d, %v; want %d, %v", got, ok, tc.want, tc.ok)
			}
			wantAt := time.Duration(0)
			if tc.blocks {
				wantAt = time.Millisecond // blocked until the drain
			}
			if at != wantAt {
				t.Errorf("route returned at %v, want %v", at, wantAt)
			}
			for j, q := range d.feeds {
				_, placed := q.RemoveWhere(func(it Item) bool { return it.Index == 7 })
				if placed != (ok && j == got) {
					t.Errorf("feed %d holds the item: %v", j, placed)
				}
			}
		})
	}

	env := sim.NewEnv()
	d := newDealer(env, "feed", n, 1, func(int) bool { return false }, HedgeConfig{}, 0)
	d.down = []bool{false, true, false, false}
	scores := []float64{2, 0, 3, 1}
	score := func(i int) float64 { return scores[i] }
	for _, path := range []struct {
		name  string
		score func(int) float64
		want  int
	}{{"rotation", nil, 2}, {"score", score, 3}} {
		route := func() {
			j, ok := d.route(nil, Item{}, 1, path.score, true)
			if !ok || j != path.want {
				t.Fatalf("%s route = %d, %v; want child %d", path.name, j, ok, path.want)
			}
			d.feeds[j].TryGet()
		}
		route()
		if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
			t.Errorf("warm %s route allocates %.0f times, want 0", path.name, allocs)
		}
	}
}
