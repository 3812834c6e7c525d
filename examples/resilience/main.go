// Resilience: the same serving session run through the same bad day
// at the rack — a stick firmware hang, then a USB link drop — with
// and without the self-healing pipeline.
//
// The fault plan is deterministic (internal/fault): both runs face the
// identical Poisson arrivals and the identical failure instants, so
// the goodput gap is attributable to recovery alone. Without recovery
// the failed sticks are abandoned (fail-stop): the survivors slip past
// their knee and goodput collapses. With recovery each outage costs
// the detection timeout plus a real reboot — reset, firmware
// re-upload, RTOS boot, graph re-allocation — in-flight items are
// redelivered within a retry budget, and the report's availability
// metrics (outages, MTTR, retries, fault drops, uptime) tell the
// story.
//
//	go run ./examples/resilience
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
// faults land mid-steady-state.
const warmup = 5 * time.Second

// slo is the per-request deadline: arrival to completion.
const slo = 450 * time.Millisecond

func main() {
	log.SetFlags(0)
	images := imagesFromEnv(defaultImages)

	// One network and one compiled blob, shared by both sessions.
	net := repro.NewGoogLeNet(repro.Seed(42))
	blob, err := repro.CompileGraph(net)
	if err != nil {
		log.Fatal(err)
	}

	// The scenario: ncs1's firmware wedges early on; ncs2's USB link
	// drops a little later. Scripted in virtual time, so it replays
	// bit-for-bit.
	plan := repro.FaultPlan{Events: []repro.FaultEvent{
		{Device: "ncs1", Kind: repro.StickHang, At: warmup + 2*time.Second},
		{Device: "ncs2", Kind: repro.LinkDrop, At: warmup + 6*time.Second},
	}}

	for _, heal := range []bool{false, true} {
		rc := repro.RecoveryConfig{Timeout: 2 * time.Second, Recover: heal, MaxAttempts: 3}
		label := "fail-stop (failed sticks abandoned)"
		if heal {
			label = "self-healing (reboot-priced recovery + redelivery)"
		}
		sess, err := repro.NewSession(repro.SessionConfig{
			Images:   images,
			Groups:   []repro.DeviceGroup{{Kind: repro.VPUGroup, Devices: 4}},
			Net:      net,
			Blob:     blob,
			Arrivals: repro.DelayedArrivals(repro.PoissonArrivals(25), warmup),
			SLO:      slo,
			Faults:   plan,
			Recovery: rc,
		})
		if err != nil {
			log.Fatal(err)
		}
		report, runErr := sess.Run()
		fmt.Printf("── %s ──\n%s", label, report)
		if runErr != nil {
			// Fail-stop abandonment surfaces as a run error by design;
			// the report above still carries the degraded measurement.
			fmt.Printf("run error (expected under fail-stop): %v\n", runErr)
		}
		fmt.Println()
	}
	fmt.Println("same arrivals, same faults: fail-stop loses two of four sticks and the")
	fmt.Println("survivors drown; recovery pays ~3s per outage (detection + reboot) and")
	fmt.Println("redelivers the in-flight items, so goodput and uptime hold")
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
