// Multi-VPU: the paper's parallel NCSw pipeline (Fig. 4) — one host
// worker per Neural Compute Stick, round-robin dispatch, and the
// near-ideal scaling of Fig. 6b. Each stick count is one
// single-group session; the session layer adds no timing overhead
// over the hand-wired target, so the scaling table matches the
// paper's.
//
//	go run ./examples/multivpu
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"repro"
)

var imagesPerRun = imagesFromEnv(200)

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

func main() {
	log.SetFlags(0)

	// One network and one compiled blob, shared by every session.
	net := repro.NewGoogLeNet(repro.Seed(42))
	blob, err := repro.CompileGraph(net)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("GoogLeNet inference on the simulated NCS testbed (Fig. 5 topology)")
	fmt.Printf("%-8s %-14s %-14s %-10s\n", "sticks", "img/s", "ms/img", "scaling")
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		ips := run(n, net, blob, nil)
		if n == 1 {
			base = ips
		}
		fmt.Printf("%-8d %-14.1f %-14.1f %.2fx\n", n, ips, 1000/ips, ips/base)
	}

	// One more 4-stick run with tracing to show the Fig. 4 overlap.
	tl := repro.NewTimeline()
	run(4, net, blob, tl)
	fmt.Println("\nsteady-state pipeline on 4 sticks (Fig. 4): L=load #=exec R=read")
	fmt.Print(tl.Render(96))
}

// run executes imagesPerRun inferences on n sticks and returns the
// steady-state throughput.
func run(n int, net *repro.Graph, blob []byte, tl *repro.Timeline) float64 {
	sess, err := repro.NewSession(repro.SessionConfig{
		Images:   imagesPerRun,
		Groups:   []repro.DeviceGroup{{Kind: repro.VPUGroup, Devices: n}},
		Net:      net,
		Blob:     blob,
		Seed:     7,
		Timeline: tl,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	if tl != nil {
		*tl = *tl.After(report.Job.ReadyAt)
	}
	return report.Throughput
}
