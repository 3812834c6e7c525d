// Command ncsw-classify is the NCSw command-line front end: it
// classifies images from a source (the synthetic validation set, or a
// folder of .ppm files made with make-dataset) on one or more device
// groups — the simulated CPU, GPU, and groups of Neural Compute
// Sticks — and reports per-group and aggregate accuracy plus
// simulated throughput.
//
// Examples:
//
//	ncsw-classify -target vpu -devices 4 -images 200
//	ncsw-classify -target cpu -batch 8 -images 400
//	ncsw-classify -target cpu,gpu,vpu -devices 4 -routing weighted
//	ncsw-classify -target vpu -folder ./val-data
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncsw-classify: ")

	target := flag.String("target", "vpu",
		"device groups, comma-separated: cpu, gpu and/or vpu (e.g. cpu,gpu,vpu)")
	devices := flag.Int("devices", 1, "NCS devices per vpu group")
	batch := flag.Int("batch", 8, "batch size for cpu/gpu groups")
	images := flag.Int("images", 100, "synthetic validation images to classify")
	folder := flag.String("folder", "", "classify .ppm images from this folder instead")
	routing := flag.String("routing", "weighted",
		"routing across groups: static, roundrobin, stealing or weighted")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	cfg := repro.SessionConfig{Functional: true, Seed: *seed}
	if *folder == "" {
		if *images <= 0 {
			log.Fatalf("-images must be positive (got %d)", *images)
		}
		// The synthetic dataset generates images lazily, so the full
		// default set costs nothing; Images bounds the run.
		cfg.Images = *images
	}
	route, err := parseRouting(*routing)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Routing = route

	for _, kind := range strings.Split(*target, ",") {
		switch strings.TrimSpace(kind) {
		case "cpu":
			cfg.Groups = append(cfg.Groups, repro.DeviceGroup{Kind: repro.CPUGroup, Batch: *batch})
		case "gpu":
			cfg.Groups = append(cfg.Groups, repro.DeviceGroup{Kind: repro.GPUGroup, Batch: *batch})
		case "vpu":
			cfg.Groups = append(cfg.Groups, repro.DeviceGroup{Kind: repro.VPUGroup, Devices: *devices})
		default:
			log.Fatalf("unknown target %q (want cpu, gpu or vpu)", kind)
		}
	}

	sess, err := repro.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}

	total := *images
	if *folder != "" {
		src, n, err := folderSource(sess, *folder)
		if err != nil {
			log.Fatal(err)
		}
		sess.SetSource(src)
		total = n
	}

	report, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report)
	fmt.Printf("images classified:  %d of %d\n", report.Images, total)
	col := report.Collector
	if col.Correct+col.Mispred > 0 {
		fmt.Printf("top-1 error:        %.2f%% (%d/%d wrong)\n",
			report.TopOneError*100, col.Mispred, col.Correct+col.Mispred)
		fmt.Printf("mean confidence:    %.3f\n", report.MeanConfidence)
	}
}

func parseRouting(name string) (repro.Routing, error) {
	switch name {
	case "static":
		return repro.StaticSplit, nil
	case "roundrobin", "rr":
		return repro.RoundRobinSplit, nil
	case "stealing", "dynamic":
		return repro.WorkStealing, nil
	case "weighted", "":
		return repro.WeightedByThroughput, nil
	}
	return 0, fmt.Errorf("unknown routing %q (want static, roundrobin, stealing or weighted)", name)
}

// folderSource loads .ppm images (with optional .xml annotations)
// sized for the session's network, labelled through the session's
// synset table.
func folderSource(sess *repro.Session, dir string) (repro.Source, int, error) {
	ds := sess.Dataset()
	labelOf := func(wnid string) (int, bool) {
		for c := 0; c < ds.Classes(); c++ {
			if ds.Synset(c).WNID == wnid {
				return c, true
			}
		}
		return 0, false
	}
	size := sess.Network().InputShape()[1]
	src, err := repro.NewFolderSource(dir, size, ds.Mean(), labelOf)
	if err != nil {
		return nil, 0, err
	}
	return src, src.Len(), nil
}
