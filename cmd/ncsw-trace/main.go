// Command ncsw-trace renders the paper's Fig. 4: the execution
// timeline of the parallel multi-VPU pipeline — forked host workers
// loading inputs, SHAVE execution overlapping across sticks, and
// result reads — as an ASCII chart or CSV. With -faults it overlays a
// scripted failure scenario (slowdown, stick hang, link drop) and the
// self-healing pipeline's response: `!` marks injections, `X` marks
// each outage from detection to rejoin, so failure scenarios are
// visually debuggable. The scenario is the session's own fault plan
// (SessionConfig.Faults), so its slowdown stretches the stick's USB
// transfers as well as its SHAVE time, as in every faulted session.
// With -tenants it runs a small multi-tenant serving session under
// weighted-fair scheduling and adds one lane per tenant below the
// device tracks — queue wait and service spans per delivered item —
// so per-tenant isolation is visually debuggable too.
//
// Examples:
//
//	ncsw-trace -devices 4 -images 12
//	ncsw-trace -devices 8 -images 32 -csv
//	ncsw-trace -devices 4 -faults
//	ncsw-trace -devices 2 -images 80 -tenants
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncsw-trace: ")

	devices := flag.Int("devices", 4, "NCS devices")
	images := flag.Int("images", 12, "inferences to trace")
	width := flag.Int("width", 100, "chart width in columns")
	csv := flag.Bool("csv", false, "emit CSV spans instead of the ASCII chart")
	seed := flag.Uint64("seed", 1, "simulation seed")
	faults := flag.Bool("faults", false,
		"inject a scripted failure scenario (slowdown, hang, link drop) with recovery enabled and annotate the chart")
	tenants := flag.Bool("tenants", false,
		"run a multi-tenant serving session (weighted-fair, three traffic classes) and add one timeline lane per tenant")
	flag.Parse()

	if *tenants && *faults {
		log.Fatal("-tenants and -faults are separate scenarios; pick one")
	}
	if *devices < 1 {
		log.Fatalf("-devices must be positive (got %d)", *devices)
	}
	var out string
	var err error
	if *tenants {
		out, err = tenantsTrace(*devices, *images, *seed, *width, *csv)
	} else {
		out, err = fleetTrace(*devices, *images, *seed, *width, *csv, *faults)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}

// fleetTrace runs the Fig. 4 session — images inferences on a fleet of
// devices sticks — and renders its steady-state timeline. With faults
// it raises images to 30 per stick and scripts a slowdown, a stick
// hang and (from three sticks on) a link drop into the session's
// Faults, with recovery on; the chart marks each injection and outage
// and a list of the injected faults follows. Deterministic for a fixed
// configuration: the golden test pins the faults chart.
func fleetTrace(devices, images int, seed uint64, width int, csv, faults bool) (string, error) {
	tl := repro.NewTimeline()
	cfg := repro.SessionConfig{
		Groups:   []repro.DeviceGroup{{Kind: repro.VPUGroup, Devices: devices}},
		Seed:     seed,
		NetSeed:  seed,
		Timeline: tl,
	}
	if faults {
		// Size the scenario so the faults land mid-steady-state: the
		// main process opens sticks sequentially (~1.05 s each: firmware
		// upload, RTOS boot, graph allocation), then each stick serves
		// ~101 ms per image.
		images = max(images, 30*devices)
		setup := time.Duration(devices) * 1100 * time.Millisecond
		stick := func(i int) string { return fmt.Sprintf("ncs%d", i) }
		cfg.Faults.Events = []repro.FaultEvent{
			{Device: stick(0), Kind: repro.Slowdown, At: setup + 200*time.Millisecond,
				Factor: 3, Duration: time.Second},
			{Device: stick(devices - 1), Kind: repro.StickHang, At: setup + 300*time.Millisecond},
		}
		if devices > 2 {
			cfg.Faults.Events = append(cfg.Faults.Events, repro.FaultEvent{
				Device: stick(1), Kind: repro.LinkDrop, At: setup + 600*time.Millisecond})
		}
		cfg.Recovery = repro.RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: true}
	}
	cfg.Dataset = repro.DefaultDatasetConfig()
	cfg.Dataset.Images = images
	sess, err := repro.NewSession(cfg)
	if err != nil {
		return "", err
	}
	rep, err := sess.Run()
	if err != nil {
		return "", err
	}
	job := rep.Job

	// Drop the one-time setup (firmware boot, graph allocation) so the
	// chart shows the steady-state pipeline of Fig. 4.
	steady := tl.After(job.ReadyAt)
	if csv {
		return steady.CSV(), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "multi-VPU execution timeline: %d inferences on %d devices (GoogLeNet)\n", images, devices)
	fmt.Fprintf(&b, "steady-state throughput: %.1f img/s\n\n", job.Throughput())
	b.WriteString(steady.Render(width))
	fmt.Fprintf(&b, "\nexec overlap across devices: %v of %v steady-state\n",
		steady.Overlap(trace.Exec), job.DoneAt-job.ReadyAt)
	if faults {
		fmt.Fprintf(&b, "\ninjected faults (%d):\n", rep.FaultLog.Count())
		for _, inj := range rep.FaultLog.Injections {
			fmt.Fprintf(&b, "  %v\n", inj)
		}
		fmt.Fprintf(&b, "outage spans (X) run from detection (completion timeout %v) to rejoin after the\n",
			cfg.Recovery.Timeout)
		b.WriteString("reboot-priced recovery: reset, firmware re-upload, RTOS boot, graph re-allocation\n")
	}
	return b.String(), nil
}

// tenantsTrace runs a small multi-tenant serving session — two steady
// interactive classes and one bursty batch class under weighted-fair
// scheduling on a VPU fleet — and renders the execution timeline with
// one lane per tenant appended below the device tracks. Each
// delivered item contributes a queue-wait span (arrival to service
// start) and a service span (noted with the device that ran it), so
// the chart shows who waited while whom was served. Deterministic for
// a fixed (devices, images, seed): the golden test pins its output.
func tenantsTrace(devices, images int, seed uint64, width int, csv bool) (string, error) {
	tl := repro.NewTimeline()
	// Arrivals start after the sequential stick bring-up (~1.05 s per
	// device: firmware upload, RTOS boot, graph allocation), and are
	// sized against the fleet's approximate closed-loop capacity
	// (~9.9 img/s per stick) to ~70% aggregate load.
	setup := time.Duration(devices) * 1100 * time.Millisecond
	capacity := 9.9 * float64(devices)
	tc := repro.TenantMuxOptions{
		Policy: repro.TenantWeightedFair,
		Lanes: []repro.TenantLane{
			{ID: "gold", Weight: 3,
				Arrivals: repro.DelayedArrivals(repro.PoissonArrivals(0.25*capacity), setup)},
			{ID: "silver", Weight: 1,
				Arrivals: repro.DelayedArrivals(repro.PoissonArrivals(0.25*capacity), setup)},
			{ID: "batch", Weight: 1,
				Arrivals: repro.DelayedArrivals(repro.BurstyArrivals(0.4*capacity, time.Second, time.Second), setup)},
		},
	}
	ds := repro.DefaultDatasetConfig()
	ds.Images = images
	sess, err := repro.NewSession(repro.SessionConfig{
		Dataset:  ds,
		Groups:   []repro.DeviceGroup{{Kind: repro.VPUGroup, Devices: devices}},
		Seed:     seed,
		SLO:      500 * time.Millisecond,
		Tenants:  tc,
		Timeline: tl,
		Retain:   true,
	})
	if err != nil {
		return "", err
	}
	rep, err := sess.Run()
	if err != nil {
		return "", err
	}
	// One lane per tenant, in declaration order (the timeline renders
	// tracks first-seen first, so the device tracks stay on top).
	for _, tr := range rep.Tenants {
		lane := "ten:" + tr.ID
		for _, r := range rep.Results {
			if r.Tenant != tr.ID {
				continue
			}
			if r.Start > r.ArrivedAt {
				tl.Add(lane, trace.Load, r.ArrivedAt, r.Start, "wait")
			}
			tl.Add(lane, trace.Exec, r.Start, r.End, r.Device)
		}
	}
	steady := tl.After(rep.Job.ReadyAt)
	if csv {
		return steady.CSV(), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "multi-tenant serving timeline: %d inferences on %d devices (GoogLeNet)\n", images, devices)
	fmt.Fprintf(&b, "scheduler: %s; slo: %v\n", rep.TenantScheduler, 500*time.Millisecond)
	for _, tr := range rep.Tenants {
		fmt.Fprintf(&b, "  %-8s weight-fair lane: arrived %3d  served %3d  shed %d  goodput %.1f%%\n",
			tr.ID, tr.Arrived, tr.Completed, tr.Shed+tr.Expired, tr.Goodput*100)
	}
	b.WriteByte('\n')
	b.WriteString(steady.Render(width))
	fmt.Fprintf(&b, "\ntenant lanes: L = queue wait (arrival to service start), # = service span on a device\n")
	return b.String(), nil
}
