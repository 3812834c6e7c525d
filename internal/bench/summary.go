package bench

import (
	"fmt"

	"repro/internal/power"
)

// Summary regenerates the paper's headline claims (abstract, §V, §VII)
// from fresh measurements: the single-VPU vs CPU/GPU latency ratio,
// the multi-VPU throughput parity, the TDP reduction, the >3x
// images-per-Watt advantage and the FP16 error deltas.
func (h *Harness) Summary() (*Table, error) {
	t := &Table{
		ID:      "summary",
		Title:   "Headline claims: paper vs this reproduction",
		Columns: []string{"claim", "paper", "measured"},
	}
	images := h.cfg.ImagesPerSubset

	cpu1, err := h.perfRun(cpuGroup(1), images, "summary/cpu1")
	if err != nil {
		return nil, err
	}
	gpu1, err := h.perfRun(gpuGroup(1), images, "summary/gpu1")
	if err != nil {
		return nil, err
	}
	vpu1, err := h.perfRun(vpuGroup(1), images, "summary/vpu1")
	if err != nil {
		return nil, err
	}
	cpu8, err := h.perfRun(cpuGroup(8), images, "summary/cpu8")
	if err != nil {
		return nil, err
	}
	gpu8, err := h.perfRun(gpuGroup(8), images, "summary/gpu8")
	if err != nil {
		return nil, err
	}
	vpu8, err := h.perfRun(vpuGroup(8), images, "summary/vpu8")
	if err != nil {
		return nil, err
	}

	t.AddRow("single-VPU latency vs CPU/GPU (§V)",
		"~4x slower",
		fmt.Sprintf("%.1fx vs CPU, %.1fx vs GPU",
			vpu1.PerImageMS/cpu1.PerImageMS, vpu1.PerImageMS/gpu1.PerImageMS))

	t.AddRow("8-VPU throughput vs GPU (abstract)",
		"equivalent (77.2 vs 74.2 img/s)",
		fmt.Sprintf("%.1f vs %.1f img/s (%.2fx)",
			vpu8.ImagesPerSec, gpu8.ImagesPerSec, vpu8.ImagesPerSec/gpu8.ImagesPerSec))

	t.AddRow("8-VPU throughput vs CPU (Fig. 6a)",
		"40.7% faster (77.2 vs 44.0)",
		fmt.Sprintf("%.1f vs %.1f img/s (+%.1f%%)",
			vpu8.ImagesPerSec, cpu8.ImagesPerSec, (vpu8.ImagesPerSec/cpu8.ImagesPerSec-1)*100))

	chipAgg := 8 * power.VPUChipTDPWatts
	stickAgg := power.MultiVPUTDP(8)
	t.AddRow("TDP reduction at equal throughput (abstract)",
		"up to 8x",
		fmt.Sprintf("%.1fx (chip TDP, 80 W vs %.1f W) / %.1fx (stick TDP, 80 W vs %.0f W)",
			power.CPUTDPWatts/chipAgg, chipAgg, power.CPUTDPWatts/stickAgg, stickAgg))

	vpuW := power.ImagesPerWatt(vpu1.ImagesPerSec, power.NCSStickPeakWatts)
	gpuW := power.ImagesPerWatt(gpu8.ImagesPerSec, power.GPUTDPWatts)
	cpuW := power.ImagesPerWatt(cpu8.ImagesPerSec, power.CPUTDPWatts)
	t.AddRow("throughput/Watt advantage (abstract)",
		"over 3x",
		fmt.Sprintf("%.1fx vs GPU, %.1fx vs CPU (%.2f vs %.2f / %.2f img/W)",
			vpuW/gpuW, vpuW/cpuW, vpuW, gpuW, cpuW))

	fig7, err := h.fig7()
	if err != nil {
		return nil, err
	}
	var e32, e16, cd float64
	for _, s := range fig7 {
		e32 += s.err32()
		e16 += s.err16()
		cd += s.confDiff()
	}
	n := float64(len(fig7))
	t.AddRow("top-1 error (FP16, §IV-B)",
		"31.92% (0.09% from FP32)",
		fmt.Sprintf("%.2f%% (%+.2f%% from FP32)", e16/n*100, (e32-e16)/n*100))
	t.AddRow("confidence difference (Fig. 7b)",
		"0.44%",
		fmt.Sprintf("%.2f%%", cd/n*100))

	return t, nil
}
