// Hedging: the same serving session run through the same straggler
// incident — one stick slowed 10x mid-run — without and with
// speculative hedged requests.
//
// A slowdown is the nastiest tail fault: the device still answers, so
// the health monitor (which watches for completion timeouts) sees
// nothing to heal, and every item routed to the straggler pays its
// inflated service time. Hedging attacks it directly: an item in
// flight longer than the trigger is duplicated onto a different
// healthy stick, the first completion wins, and the loser is
// withdrawn from its queue (free) or discarded on completion (the
// waste the report accounts). Both runs face the identical Poisson
// arrivals and the identical fault instants, so the p99 gap is
// attributable to hedging alone — and a third run with trigger=∞
// (repro.HedgeNever) demonstrates that arming hedging without firing
// it reproduces the baseline bit for bit.
//
//	go run ./examples/hedging
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"repro"
)

const defaultImages = 600

// warmup skips the sequential 4-stick setup (~4.2 s simulated) so the
// straggler window lands mid-steady-state.
const warmup = 5 * time.Second

// slo is the per-request deadline: arrival to completion.
const slo = 450 * time.Millisecond

// trigger duplicates any item in flight longer than this (~3x the
// healthy per-item service time) onto another stick.
const trigger = 300 * time.Millisecond

func main() {
	log.SetFlags(0)
	images := imagesFromEnv(defaultImages)

	// One network and one compiled blob, shared by all sessions.
	net := repro.NewGoogLeNet(repro.Seed(42))
	blob, err := repro.CompileGraph(net)
	if err != nil {
		log.Fatal(err)
	}

	// The scenario: ncs1 turns straggler for a third of the run.
	plan := repro.FaultPlan{Events: []repro.FaultEvent{
		{Device: "ncs1", Kind: repro.Slowdown, At: warmup + 2*time.Second,
			Factor: 10, Duration: 6 * time.Second},
	}}

	variants := []struct {
		label string
		hedge repro.HedgeConfig
	}{
		{"no hedging (straggler dominates p99)", repro.HedgeConfig{}},
		{"hedging armed, trigger=∞ (must match the baseline bit for bit)",
			repro.HedgeConfig{Trigger: repro.HedgeNever}},
		{fmt.Sprintf("hedged requests (trigger %v, 15%% budget)", trigger),
			repro.HedgeConfig{Trigger: trigger, Budget: 0.15}},
	}
	for _, v := range variants {
		sess, err := repro.NewSession(repro.SessionConfig{
			Images:   images,
			Groups:   []repro.DeviceGroup{{Kind: repro.VPUGroup, Devices: 4}},
			Net:      net,
			Blob:     blob,
			Arrivals: repro.DelayedArrivals(repro.PoissonArrivals(25), warmup),
			SLO:      slo,
			Faults:   plan,
			Recovery: repro.DefaultRecoveryConfig(),
			Hedge:    v.hedge,
		})
		if err != nil {
			log.Fatal(err)
		}
		report, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── %s ──\n%s\n", v.label, report)
	}
	fmt.Println("same arrivals, same straggler: the duplicate answers in one healthy")
	fmt.Println("service time while the slowed stick grinds, so p99 falls back toward")
	fmt.Println("the healthy baseline at the cost of the wasted duplicate completions")
}

// imagesFromEnv returns the NCSW_EXAMPLE_IMAGES override (the smoke
// test runs every example at tiny scale) or def.
func imagesFromEnv(def int) int {
	if s := os.Getenv("NCSW_EXAMPLE_IMAGES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}
