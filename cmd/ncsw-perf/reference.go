package main

import (
	"math"
	"time"
)

// On a machine whose cores and memory are shared with other tenants,
// host speed drifts: the same repetition's wall time can move by half
// within minutes while nothing in the benchmark changes. So every child
// times a fixed reference first, before any simulator code has run in
// it, and host times are reported rescaled by refNominal over the
// reference's time. The reference mixes the kinds of work the
// simulator's host code is made of: float arithmetic, dependent loads
// from memory, small-object allocation, channel hand-offs between
// goroutines, and map access. It is the benchmark's own code and runs
// in a fresh process ahead of the simulator, so no change to the
// simulator can move it.

// refNominal is the reference time the host times are rescaled to: its
// typical time on an unloaded 2-vCPU Intel Xeon VM.
const refNominal = 0.055

// refSink keeps the reference kernels' results live.
var refSink float64

// reference returns the reference time in seconds: the sum over its
// kernels of the best of three runs each.
func reference() float64 {
	// A full-period LCG over 2^22 slots: following it is a chain of
	// dependent loads over 16 MB that no prefetcher predicts.
	const slots = 1 << 22
	ring := make([]uint32, slots)
	for i := range ring {
		ring[i] = uint32((uint64(i)*1664525 + 1013904223) % slots)
	}
	kernels := []func(){
		func() {
			x := 0.0
			for i := 0; i < 4_000_000; i++ {
				x += math.Sqrt(float64(i))
			}
			refSink += x
		},
		func() {
			p := uint32(0)
			for i := 0; i < 200_000; i++ {
				p = ring[p]
			}
			refSink += float64(p)
		},
		func() {
			type node struct {
				next *node
				v    float64
			}
			var head *node
			for i := 0; i < 300_000; i++ {
				head = &node{next: head, v: float64(i)}
			}
			for n := head; n != nil; n = n.next {
				refSink += n.v
			}
		},
		func() {
			in, out := make(chan int), make(chan int)
			go func() {
				for v := range in {
					out <- v + 1
				}
				close(out)
			}()
			for i := 0; i < 20_000; i++ {
				in <- i
				refSink += float64(<-out)
			}
			close(in)
			<-out
		},
		func() {
			m := make(map[int]int)
			for i := 0; i < 100_000; i++ {
				m[i*7919] = i
			}
			for i := 0; i < 200_000; i++ {
				refSink += float64(m[i*7919])
			}
		},
	}
	total := 0.0
	for _, k := range kernels {
		best := math.Inf(1)
		for range 3 {
			start := time.Now()
			k()
			best = math.Min(best, time.Since(start).Seconds())
		}
		total += best
	}
	return total
}
