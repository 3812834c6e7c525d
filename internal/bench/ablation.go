package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/imagenet"
	"repro/internal/ncs"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/usb"
)

// vpuRunSpec parameterizes an ablation run of the multi-VPU pipeline.
type vpuRunSpec struct {
	devices   int
	images    int
	runName   string
	ncsCfg    ncs.Config
	opts      core.VPUOptions
	allDirect bool // bypass hubs: every stick on its own root port
	usbCfg    usb.Config
}

// runVPUSpec is the hand-wired variant of perfRun used by the ablation
// experiments: it swaps the stick and USB models, which a session
// does not expose.
func (h *Harness) runVPUSpec(spec vpuRunSpec) (perfResult, error) {
	env := sim.NewEnv()
	var ports []*usb.Port
	if spec.allDirect {
		fabric, err := usb.NewFabric(env, spec.usbCfg)
		if err != nil {
			return perfResult{}, err
		}
		for i := 0; i < spec.devices; i++ {
			p, err := fabric.AttachDevice(fmt.Sprintf("ncs%d", i), -1)
			if err != nil {
				return perfResult{}, err
			}
			ports = append(ports, p)
		}
	} else {
		var err error
		_, ports, err = usb.Testbed(env, spec.usbCfg, spec.devices)
		if err != nil {
			return perfResult{}, err
		}
	}
	seed := rng.New(h.cfg.Seed).Derive("vpu-run/" + spec.runName)
	devices := make([]*ncs.Device, spec.devices)
	for i, port := range ports {
		d, err := ncs.NewDevice(env, port.Name(), port, spec.ncsCfg, seed)
		if err != nil {
			return perfResult{}, err
		}
		devices[i] = d
	}
	target, err := core.NewVPUTarget(devices, h.blob, spec.opts)
	if err != nil {
		return perfResult{}, err
	}
	ds, err := imagenet.New(h.perfDataset(spec.images))
	if err != nil {
		return perfResult{}, err
	}
	src, err := core.NewDatasetSource(ds, 0, spec.images, false)
	if err != nil {
		return perfResult{}, err
	}
	col := core.NewCollector(false)
	job := target.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		return perfResult{}, job.Err
	}
	ips := job.Throughput()
	return perfResult{ImagesPerSec: ips, PerImageMS: 1e3 / ips}, nil
}

// Ablation quantifies the design choices DESIGN.md §5 calls out. These
// go beyond the paper's figures: they measure what each mechanism of
// the NCSw pipeline is worth on the simulated testbed.
func (h *Harness) Ablation() (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Title:   "Design-choice ablations on the 8-stick testbed",
		Columns: []string{"configuration", "throughput (img/s)", "vs baseline"},
		Notes: []string{
			"baseline = paper-faithful NCSw: sequential load/get per stick, round-robin, FIFO depth 2, Fig. 5 hub topology",
			"FIFO depth 1 retains the overlap gain: the executing inference has already left the queue, so one slot still double-buffers",
		},
	}
	images := h.cfg.ImagesPerSubset

	base := vpuRunSpec{
		devices: 8,
		images:  images,
		runName: "ablation/base",
		ncsCfg:  ncs.DefaultConfig(),
		opts:    core.DefaultVPUOptions(),
		usbCfg:  usb.DefaultConfig(),
	}
	baseline, err := h.runVPUSpec(base)
	if err != nil {
		return nil, err
	}
	t.AddRow("baseline (paper-faithful)", fmt.Sprintf("%.1f", baseline.ImagesPerSec), "1.00x")

	addVariant := func(name string, spec vpuRunSpec) error {
		r, err := h.runVPUSpec(spec)
		if err != nil {
			return err
		}
		t.AddRow(name, fmt.Sprintf("%.1f", r.ImagesPerSec),
			fmt.Sprintf("%.3fx", r.ImagesPerSec/baseline.ImagesPerSec))
		return nil
	}

	// 1. Load/result overlap: pipeline two inferences per stick,
	// hiding the USB transfer behind SHAVE execution.
	overlap := base
	overlap.runName = "ablation/overlap"
	overlap.opts.Overlap = true
	if err := addVariant("overlap (2 in flight per stick)", overlap); err != nil {
		return nil, err
	}

	// 2. Overlap with FIFO depth 1. Finding: depth 1 keeps the whole
	// overlap gain — the runtime dequeues a job when execution starts,
	// so one slot still buffers the next input behind the running
	// inference. Depth only matters for pipelines deeper than two.
	fifo1 := overlap
	fifo1.runName = "ablation/overlap-fifo1"
	fifo1.ncsCfg.FIFODepth = 1
	if err := addVariant("overlap + FIFO depth 1", fifo1); err != nil {
		return nil, err
	}

	// 3. Dynamic dispatch instead of static round robin.
	dyn := base
	dyn.runName = "ablation/dynamic"
	dyn.opts.Scheduling = core.Dynamic
	if err := addVariant("dynamic scheduling", dyn); err != nil {
		return nil, err
	}

	// 4. No hubs: every stick on its own root port (removes the shared
	// hub uplinks of Fig. 5).
	direct := base
	direct.runName = "ablation/direct"
	direct.allDirect = true
	if err := addVariant("all sticks on direct ports", direct); err != nil {
		return nil, err
	}

	// 5. Thermal stress: a hot enclosure with low throttle thresholds
	// (the firmware behaviour the paper's open-air testbed never hit).
	hot := base
	hot.runName = "ablation/thermal"
	hot.ncsCfg.Thermal = ncs.ThermalConfig{
		AmbientC:        45,
		ResistanceCPerW: 20,
		TimeConstant:    5 * time.Second,
		Level1C:         60,
		Level2C:         75,
		Level1Factor:    0.5,
		Level2Factor:    0.25,
	}
	if err := addVariant("hot enclosure (thermal throttling)", hot); err != nil {
		return nil, err
	}

	// 6. Zero host overhead: what the pipeline would do with free
	// thread management.
	free := base
	free.runName = "ablation/free-host"
	free.opts.HostOverhead = 0
	if err := addVariant("zero host thread overhead", free); err != nil {
		return nil, err
	}

	return t, nil
}

// PrecisionAblation compares the VAU's two accumulate paths on the
// accuracy pipeline: FP32 accumulation (the mode matching the paper's
// negligible Fig. 7a error difference) against native FP16
// accumulation, which degrades the error rate visibly — evidence the
// NCSDK used the FP32-accumulate path.
func (h *Harness) PrecisionAblation(images int) (*Table, error) {
	if images <= 0 {
		return nil, fmt.Errorf("bench: precision ablation needs images > 0")
	}
	dcfg := imagenet.DefaultConfig()
	dcfg.Images = images
	dcfg.Subsets = 1
	ds, err := imagenet.New(dcfg)
	if err != nil {
		return nil, err
	}
	net32, net16, err := microNets(ds)
	if err != nil {
		return nil, err
	}

	names := []string{"FP32 (CPU reference)", "FP16, FP32 accumulate", "FP16, FP16 accumulate"}
	passes := []pass{{net32, nn.FP32}, {net16, nn.FP16}, {net16, nn.FP16Strict}}
	t := &Table{
		ID:      "precision",
		Title:   "Precision ablation: accumulate width on the VPU path",
		Columns: []string{"mode", "top-1 error", "Δ vs FP32"},
		Notes: []string{
			fmt.Sprintf("%d images; paper observes a 0.09%% FP32-FP16 difference, consistent with FP32 accumulation", images),
		},
	}
	preds, err := predict(ds, 0, images, passes...)
	if err != nil {
		return nil, err
	}
	var ref float64
	for k, ps := range passes {
		e := float64(wrongLabels(ds, preds[k])) / float64(images)
		if ps.prec == nn.FP32 {
			ref = e
		}
		t.AddRow(names[k], fmt.Sprintf("%.2f%%", e*100), fmt.Sprintf("%+.2f%%", (e-ref)*100))
	}
	return t, nil
}
