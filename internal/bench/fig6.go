package bench

import "fmt"

// Paper-reported values for Fig. 6 (§IV-A).
var (
	// paperFig6aIPS are the average throughputs at batch 8 / 8 VPUs.
	paperFig6aIPS = map[string]float64{"cpu": 44.0, "gpu": 74.2, "vpu": 77.2}
	// paperFig6bSingleMS are the single-input latencies used as
	// normalization baselines.
	paperFig6bSingleMS = map[string]float64{"cpu": 26.0, "gpu": 25.9, "vpu": 100.7}
	// paperFig6bScaling8 are the reported relative speedups at 8.
	paperFig6bScaling8 = map[string]float64{"cpu": 1.1, "gpu": 1.9, "vpu": 7.8}
)

// Fig6a regenerates Figure 6a: inference throughput per validation
// subset at batch size 8 (8 active VPUs) for the CPU, GPU and
// multi-VPU configurations.
func (h *Harness) Fig6a() (*Table, error) {
	t := &Table{
		ID:    "fig6a",
		Title: "Inference performance per subset, 8-input batches (img/s)",
		Columns: []string{
			"subset", "CPU img/s", "GPU img/s", "VPU(multi) img/s",
		},
		Notes: []string{
			fmt.Sprintf("images per subset: %d (paper: 10000)", h.cfg.ImagesPerSubset),
			"paper averages: CPU 44.0, GPU 74.2, VPU 77.2 img/s",
		},
	}
	var cpuSum, gpuSum, vpuSum float64
	for k := 0; k < h.cfg.Subsets; k++ {
		run := fmt.Sprintf("fig6a/set%d", k+1)
		cpu, err := h.perfRun(cpuGroup(8), h.cfg.ImagesPerSubset, run)
		if err != nil {
			return nil, err
		}
		gpu, err := h.perfRun(gpuGroup(8), h.cfg.ImagesPerSubset, run)
		if err != nil {
			return nil, err
		}
		vpu, err := h.perfRun(vpuGroup(8), h.cfg.ImagesPerSubset, run)
		if err != nil {
			return nil, err
		}
		cpuSum += cpu.ImagesPerSec
		gpuSum += gpu.ImagesPerSec
		vpuSum += vpu.ImagesPerSec
		t.AddRow(
			fmt.Sprintf("Set-%d", k+1),
			fmt.Sprintf("%.1f ±%.1f", cpu.ImagesPerSec, cpu.StdMS),
			fmt.Sprintf("%.1f ±%.1f", gpu.ImagesPerSec, gpu.StdMS),
			fmt.Sprintf("%.1f ±%.1f", vpu.ImagesPerSec, vpu.StdMS),
		)
	}
	n := float64(h.cfg.Subsets)
	t.AddRow(
		"mean",
		fmtRatio(cpuSum/n, paperFig6aIPS["cpu"], "%.1f"),
		fmtRatio(gpuSum/n, paperFig6aIPS["gpu"], "%.1f"),
		fmtRatio(vpuSum/n, paperFig6aIPS["vpu"], "%.1f"),
	)
	t.AddRow(
		"vs paper",
		pctDelta(cpuSum/n, paperFig6aIPS["cpu"]),
		pctDelta(gpuSum/n, paperFig6aIPS["gpu"]),
		pctDelta(vpuSum/n, paperFig6aIPS["vpu"]),
	)
	return t, nil
}

// Fig6bBatches are the batch sizes of Figure 6b; the number of active
// VPU chips is coupled with the input size.
var Fig6bBatches = []int{1, 2, 4, 8}

// Fig6b regenerates Figure 6b: per-device performance scaling with
// batch size, normalized to each device's single-input latency.
func (h *Harness) Fig6b() (*Table, error) {
	t := &Table{
		ID:    "fig6b",
		Title: "Normalized performance scaling vs batch size (single-input = 1.0)",
		Columns: []string{
			"batch", "CPU ms/img", "CPU scale", "GPU ms/img", "GPU scale", "VPU ms/img", "VPU scale",
		},
		Notes: []string{
			"paper single-input baselines: CPU 26.0 ms, GPU 25.9 ms, VPU 100.7 ms",
			"paper scaling at 8: CPU 1.1x, GPU 1.9x, VPU close to 8x",
		},
	}
	images := h.cfg.ImagesPerSubset
	base := map[string]float64{}
	for _, b := range Fig6bBatches {
		run := fmt.Sprintf("fig6b/b%d", b)
		cpu, err := h.perfRun(cpuGroup(b), images, run)
		if err != nil {
			return nil, err
		}
		gpu, err := h.perfRun(gpuGroup(b), images, run)
		if err != nil {
			return nil, err
		}
		vpu, err := h.perfRun(vpuGroup(b), images, run)
		if err != nil {
			return nil, err
		}
		if b == 1 {
			base["cpu"], base["gpu"], base["vpu"] = cpu.PerImageMS, gpu.PerImageMS, vpu.PerImageMS
		}
		t.AddRow(
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f", cpu.PerImageMS),
			fmt.Sprintf("%.2fx", base["cpu"]/cpu.PerImageMS),
			fmt.Sprintf("%.1f", gpu.PerImageMS),
			fmt.Sprintf("%.2fx", base["gpu"]/gpu.PerImageMS),
			fmt.Sprintf("%.1f", vpu.PerImageMS),
			fmt.Sprintf("%.2fx", base["vpu"]/vpu.PerImageMS),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured single-input baselines: CPU %.1f ms (paper 26.0), GPU %.1f ms (paper 25.9), VPU %.1f ms (paper 100.7)",
			base["cpu"], base["gpu"], base["vpu"]))
	return t, nil
}
