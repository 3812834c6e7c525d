// Quickstart: the paper's workflow through the declarative session
// API — one simulated Neural Compute Stick classifies five synthetic
// validation images with real FP16 inference. The session owns what
// Listing 1 hand-wires: dataset synthesis, network construction and
// calibration, graph compilation (mvNCCompile), USB testbed assembly,
// device open/allocate, and result collection.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)
	fmt.Println(repro.About())

	sess, err := repro.NewSession(repro.SessionConfig{
		Groups:     []repro.DeviceGroup{{Kind: repro.VPUGroup, Devices: 1}},
		Functional: true,
		Images:     5,
		Retain:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}

	ds := sess.Dataset()
	for _, r := range report.Results {
		verdict := "MISS"
		if r.Pred == r.Label {
			verdict = "HIT"
		}
		fmt.Printf("image %d: predicted %q (class %d, conf %.3f) — truth %q [%s] in %v\n",
			r.Index, ds.Synset(r.Pred).Name, r.Pred, r.Confidence,
			ds.Synset(r.Label).Name, verdict, r.End-r.Start)
	}
	fmt.Println()
	fmt.Print(report)
}
