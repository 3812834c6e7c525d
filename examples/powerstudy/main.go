// Powerstudy: the paper's §V analysis — Eq. (1) images-per-Watt for
// the CPU, GPU and multi-VPU configurations, plus the simulated
// energy meter reading the paper leaves to future work ("actual power
// measurements would be required ... the TDP can be far from the real
// power draws per device"). Each configuration is one single-group
// session; the report carries both the TDP-based img/W and the
// metered energy.
//
//	go run ./examples/powerstudy
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"repro"
)

var images = imagesFromEnv(400)

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

	fmt.Println("GoogLeNet inference, throughput per Watt (Eq. 1, batch 8 / 8 sticks)")
	fmt.Printf("%-12s %-12s %-10s %-12s\n", "target", "img/s", "TDP (W)", "img/W")

	cpu := run(net, blob, repro.DeviceGroup{Kind: repro.CPUGroup, Batch: 8})
	fmt.Printf("%-12s %-12.1f %-10.1f %-12.2f\n", "CPU", cpu.Throughput, cpu.TDPWatts, cpu.ImagesPerWatt)

	gpu := run(net, blob, repro.DeviceGroup{Kind: repro.GPUGroup, Batch: 8})
	fmt.Printf("%-12s %-12.1f %-10.1f %-12.2f\n", "GPU", gpu.Throughput, gpu.TDPWatts, gpu.ImagesPerWatt)

	vpu := run(net, blob, repro.DeviceGroup{Kind: repro.VPUGroup, Devices: 8})
	fmt.Printf("%-12s %-12.1f %-10.1f %-12.2f\n", "VPU x8", vpu.Throughput, vpu.TDPWatts, vpu.ImagesPerWatt)

	// Beyond the paper: the sticks' simulated power states (boot,
	// idle, SHAVE-active) integrated over the run instead of the TDP
	// assumption — straight off the session report.
	fmt.Printf("\nmeasured (simulated) energy across 8 sticks: %.1f J\n", vpu.EnergyJoules)
	fmt.Printf("average draw %.2f W total (%.2f W per stick) vs %.0f W TDP assumption\n",
		vpu.AvgPowerWatts, vpu.AvgPowerWatts/8, vpu.TDPWatts)
	fmt.Printf("metered img/W: %.2f (TDP-based: %.2f)\n",
		float64(vpu.Images)/vpu.EnergyJoules, vpu.ImagesPerWatt)
}

// run executes one pure-performance session and returns its only
// group report.
func run(net *repro.Graph, blob []byte, group repro.DeviceGroup) repro.TargetReport {
	sess, err := repro.NewSession(repro.SessionConfig{
		Groups: []repro.DeviceGroup{group},
		Images: images,
		Net:    net,
		Blob:   blob,
		Seed:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	return report.Targets[0]
}
