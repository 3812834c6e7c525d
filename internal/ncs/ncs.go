// Package ncs models the Intel Neural Compute Stick: the USB-attached
// SoC that wraps a Myriad 2 VPU with two RISC management cores running
// a real-time OS, a firmware boot step, and an inference FIFO (§II-B
// of the paper, Fig. 2).
//
// Its API deliberately mirrors the Neural Compute API (NCAPI 1.x) that
// the paper's NCSw framework is built on, including the semantics of
// Listing 1: LoadTensor transfers an input and queues execution
// without waiting for the inference, and GetResult blocks the host
// process until the result for the oldest queued inference is ready —
// the split that makes computation/communication overlap (and thus the
// multi-VPU pipeline of Fig. 4) possible.
//
// Everything here runs in virtual time on internal/sim; functional
// (numeric) inference is optional per graph.
package ncs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graphfile"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/usb"
	"repro/internal/vpu"
)

// Status errors mirror the mvncStatus codes of the NCSDK.
var (
	// ErrDeviceNotOpen is returned for operations before Open.
	ErrDeviceNotOpen = errors.New("ncs: device not open (MVNC_DEVICE_NOT_OPEN)")
	// ErrAlreadyOpen is returned for a second Open.
	ErrAlreadyOpen = errors.New("ncs: device already open (MVNC_BUSY)")
	// ErrGraphAllocated is returned when allocating a second graph.
	ErrGraphAllocated = errors.New("ncs: a graph is already allocated (MVNC_BUSY)")
	// ErrClosed is returned for operations after Close or after the
	// device's USB link dropped.
	ErrClosed = errors.New("ncs: device closed (MVNC_GONE)")
	// ErrMissingInput is returned when a functional graph is fed a nil
	// tensor.
	ErrMissingInput = errors.New("ncs: functional graph requires an input tensor")
	// ErrResultTimeout is returned by GetResultWithin when no result
	// lands inside the completion timeout — the health-monitoring
	// signal that a device has hung.
	ErrResultTimeout = errors.New("ncs: no result within the completion timeout (MVNC_TIMEOUT)")
	// ErrTransient marks an inference the device runtime failed (a
	// recoverable Myriad error, typically fault-injected); the item is
	// safe to redeliver.
	ErrTransient = errors.New("ncs: inference failed on device (MVNC_MYRIAD_ERROR)")
)

// Config models the stick around the VPU.
type Config struct {
	// FIFODepth is the number of queued inferences the device accepts
	// before LoadTensor blocks (the NCSDK allowed two in flight,
	// enabling double buffering).
	FIFODepth int
	// FirmwareBytes is the firmware image pushed at Open ("when the
	// NCAPI initializes and opens a device, a firmware is loaded onto
	// the NCS").
	FirmwareBytes int
	// BootTime is the RTOS boot after firmware load.
	BootTime time.Duration
	// AllocParseBandwidth is the on-device rate for validating and
	// unpacking the graph blob into LPDDR3 (bytes/s).
	AllocParseBandwidth float64
	// CommandOverhead is the RISC runtime cost to dequeue a job and
	// launch it on the SHAVE array.
	CommandOverhead time.Duration
	// ResultHeaderBytes pads every result transfer (status + metadata).
	ResultHeaderBytes int

	// Stick-level power states (the chip's own draw is inside
	// vpu.Config; these cover RISC cores, DDR and the USB PHY).
	IdleWatts   float64
	BootWatts   float64
	ActiveWatts float64

	// Thermal models the stick's temperature and the firmware's
	// throttling thresholds (see thermal.go).
	Thermal ThermalConfig
}

// DefaultConfig returns the calibrated NCS model: with the default VPU
// and USB configs, a single-stick GoogLeNet round trip costs ≈100.7 ms,
// the paper's measured value.
func DefaultConfig() Config {
	return Config{
		FIFODepth:           2,
		FirmwareBytes:       1800 << 10,
		BootTime:            850 * time.Millisecond,
		AllocParseBandwidth: 400e6,
		CommandOverhead:     300 * time.Microsecond,
		ResultHeaderBytes:   128,
		IdleWatts:           0.70,
		BootWatts:           1.50,
		ActiveWatts:         2.50,
		Thermal:             DefaultThermalConfig(),
	}
}

func (c Config) validate() error {
	if c.FIFODepth < 1 {
		return fmt.Errorf("ncs: FIFO depth %d", c.FIFODepth)
	}
	if c.FirmwareBytes < 0 || c.BootTime < 0 || c.CommandOverhead < 0 || c.ResultHeaderBytes < 0 {
		return fmt.Errorf("ncs: negative size or duration in %+v", c)
	}
	if c.AllocParseBandwidth <= 0 {
		return fmt.Errorf("ncs: non-positive parse bandwidth")
	}
	if c.IdleWatts < 0 || c.BootWatts < c.IdleWatts || c.ActiveWatts < c.IdleWatts {
		return fmt.Errorf("ncs: implausible power states %+v", c)
	}
	if !c.Thermal.validate() {
		return fmt.Errorf("ncs: implausible thermal model %+v", c.Thermal)
	}
	return nil
}

type deviceState int

const (
	stateClosed deviceState = iota
	stateOpen
	stateGone
)

// Device is one simulated Neural Compute Stick.
type Device struct {
	name    string
	env     *sim.Env
	port    *usb.Port
	cfg     Config
	state   deviceState
	graph   *Graph
	meter   *power.Meter
	seed    *rng.Source
	thermal *thermalState
	// onExec observes each on-device execution span (for Fig. 4
	// timelines); nil disables.
	onExec func(device string, start, end time.Duration)

	// Fault-injection state (driven by internal/fault hooks).
	hung      bool    // firmware frozen: inferences never complete
	slow      float64 // service-time multiplier (straggler window); <=1 = none
	transient int     // inferences left to fail with ErrTransient
}

// InjectHang freezes the device firmware: queued inferences are still
// accepted (until the FIFO fills) but never complete, exactly like a
// wedged RTOS. Only a host-side Reset (or InjectLinkDrop) ends the
// hang. Safe to call from scheduler callbacks.
func (d *Device) InjectHang() { d.hung = true }

// InjectLinkDrop severs the USB link: the device is gone (MVNC_GONE),
// the current graph dies with its in-flight work, and every call fails
// with ErrClosed until the host calls Reset and re-opens the device.
func (d *Device) InjectLinkDrop() {
	if d.state == stateGone {
		return
	}
	d.state = stateGone
	d.meter.SetPower(d.env.Now(), 0) // unplugged
	d.killGraph()
}

// InjectTransientErrors makes the next n inferences complete with
// ErrTransient instead of a result — the recoverable single-inference
// failure mode.
func (d *Device) InjectTransientErrors(n int) {
	if n > 0 {
		d.transient += n
	}
}

// InjectSlowdown stretches every subsequent inference ×factor — the
// straggler fault. ClearSlowdown ends the window.
func (d *Device) InjectSlowdown(factor float64) {
	if factor > 1 {
		d.slow = factor
	}
}

// ClearSlowdown ends a straggler window.
func (d *Device) ClearSlowdown() { d.slow = 0 }

// Reset force-returns the device to the closed state from wherever it
// is — the host-side power-cycle/re-enumeration step of recovery. The
// current graph (if any) dies immediately, in-flight inferences are
// lost, and a frozen firmware is cleared; the caller then pays the
// full Open + AllocateGraph cost to bring the device back. Safe to
// call from scheduler callbacks (it never blocks).
func (d *Device) Reset() {
	d.killGraph()
	if d.state != stateClosed {
		d.meter.SetPower(d.env.Now(), 0) // power-cycled
	}
	d.state = stateClosed
	d.hung = false
	d.transient = 0
}

// killGraph detaches and poisons the current graph: its runtime exits
// at the next checkpoint, blocked producers and consumers are woken,
// and pending results are lost.
func (d *Device) killGraph() {
	g := d.graph
	d.graph = nil
	if g == nil || g.dead {
		return
	}
	g.dead = true
	// Wake the runtime wherever it is parked: a hung runtime waits on
	// hangWait; an idle one blocks on the FIFO (TryPut only fails when
	// the FIFO is full, in which case the runtime is mid-inference and
	// sees dead at its next checkpoint). A host blocked in GetResult is
	// woken with a poison result and re-checks dead.
	g.hangWait.TryPut(struct{}{})
	g.fifo.TryPut(job{shutdown: true})
	g.results.TryPut(Result{})
}

// SetExecObserver registers a callback invoked with the virtual-time
// span of every inference executed on the SHAVE array.
func (d *Device) SetExecObserver(fn func(device string, start, end time.Duration)) {
	d.onExec = fn
}

// NewDevice creates a closed device attached to the given USB port.
func NewDevice(env *sim.Env, name string, port *usb.Port, cfg Config, seed *rng.Source) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if port == nil {
		return nil, fmt.Errorf("ncs: device %q has no USB port", name)
	}
	return &Device{
		name:    name,
		env:     env,
		port:    port,
		cfg:     cfg,
		meter:   power.NewMeter(name, cfg.IdleWatts),
		seed:    seed.Derive("ncs/" + name),
		thermal: newThermalState(cfg.Thermal, cfg.IdleWatts),
	}, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Meter exposes the stick's power meter.
func (d *Device) Meter() *power.Meter { return d.meter }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Open pushes the firmware over USB and boots the RTOS (the NCAPI's
// mvncOpenDevice). It must be called from a simulated process.
func (d *Device) Open(p *sim.Proc) error {
	switch d.state {
	case stateOpen:
		return ErrAlreadyOpen
	case stateGone:
		return ErrClosed
	}
	d.meter.SetPower(p.Now(), d.cfg.BootWatts)
	d.port.Transfer(p, d.cfg.FirmwareBytes)
	p.Sleep(d.cfg.BootTime)
	if d.state == stateGone {
		// The link dropped mid-boot; the fault must not be papered
		// over by the epilogue.
		return ErrClosed
	}
	d.meter.SetPower(p.Now(), d.cfg.IdleWatts)
	d.state = stateOpen
	return nil
}

// GraphOptions configures AllocateGraph.
type GraphOptions struct {
	// VPU overrides the chip model (zero value = vpu.DefaultConfig()).
	VPU *vpu.Config
	// Functional enables numeric FP16 inference; LoadTensor then
	// requires real input tensors and results carry confidence
	// vectors.
	Functional bool
}

// AllocateGraph ships a graph file to the device, which parses and
// validates it and readies the VPU engine (mvncAllocateGraph). The
// transfer and parse times follow the file's length. Bytes from
// outside (graphfile.FromBytes) are checked in full, CRC included,
// rejecting a corrupted file exactly like the firmware does. A handle
// this process compiled is trusted: the device re-reads its structure
// with the same checks but no CRC, and a timing graph never builds the
// payload, because the engine costs layers from their geometry. A
// functional graph builds it here and decodes its weights on its
// first inference. The graph keeps referring to the file, which other
// live sessions may share, so its bytes must be treated as read-only.
func (d *Device) AllocateGraph(p *sim.Proc, file *graphfile.Handle, opts GraphOptions) (*Graph, error) {
	if d.state == stateClosed {
		return nil, ErrDeviceNotOpen
	}
	if d.state == stateGone {
		return nil, ErrClosed
	}
	if d.graph != nil {
		return nil, ErrGraphAllocated
	}

	d.port.Transfer(p, file.Len())
	p.Sleep(time.Duration(float64(file.Len()) / d.cfg.AllocParseBandwidth * float64(time.Second)))
	if d.state != stateOpen {
		// The link dropped while the blob was in flight.
		return nil, ErrClosed
	}
	if opts.Functional {
		file.Bytes()
	}
	net, info, err := file.Parse()
	if err != nil {
		return nil, fmt.Errorf("ncs: device %s rejected graph: %w", d.name, err)
	}
	vcfg := vpu.DefaultConfig()
	if opts.VPU != nil {
		vcfg = *opts.VPU
	}
	engine, err := vpu.NewEngine(vcfg, net, d.seed)
	if err != nil {
		return nil, fmt.Errorf("ncs: %w", err)
	}

	g := &Graph{
		dev:        d,
		engine:     engine,
		info:       info,
		functional: opts.Functional,
		inputBytes: info.InputShape.Elems() * 2, // FP16 tensor
		resultBytes: func() int {
			out := net.OutputShape().Elems()
			return out*2 + d.cfg.ResultHeaderBytes
		}(),
		fifo:     sim.NewQueue[job](d.env, d.name+"/fifo", d.cfg.FIFODepth),
		results:  sim.NewQueue[Result](d.env, d.name+"/results", 0),
		hangWait: sim.NewQueue[struct{}](d.env, d.name+"/hang", 0),
	}
	d.graph = g
	d.env.Process(d.name+"/runtime", g.runtime)
	return g, nil
}

// Close drains the device and shuts the runtime down
// (mvncCloseDevice). Pending queued inferences are still executed and
// their results remain retrievable through the (now detached) Graph
// handle. The device returns to the closed state: a Close → Open →
// AllocateGraph cycle starts from a clean slate — the recovery path
// re-allocates without tripping ErrGraphAllocated.
func (d *Device) Close(p *sim.Proc) error {
	switch d.state {
	case stateClosed:
		return ErrDeviceNotOpen
	case stateGone:
		return ErrClosed
	}
	if d.graph != nil {
		d.graph.fifo.Put(p, job{shutdown: true})
		d.graph = nil
	}
	d.state = stateClosed
	return nil
}

// job is one queued inference (or the shutdown marker).
type job struct {
	id        int64
	input     *tensor.T
	userParam any
	shutdown  bool
}

// Result is what GetResult returns: the NCAPI gives back the output
// tensor (class confidences) plus the userParam passed to LoadTensor.
type Result struct {
	ID        int64
	Output    *tensor.T // nil unless the graph is functional
	UserParam any
	ExecTime  time.Duration
	Err       error // functional inference failure, if any
}

// Graph is an allocated network on one device.
type Graph struct {
	dev         *Device
	engine      *vpu.Engine
	info        *graphfile.Info
	functional  bool
	inputBytes  int
	resultBytes int

	fifo    *sim.Queue[job]
	results *sim.Queue[Result]
	nextID  int64
	// dead marks a killed graph (link drop, device reset): the runtime
	// exits at its next checkpoint and every host call fails with
	// ErrClosed.
	dead bool
	// hangWait parks the runtime while the firmware is frozen; a kill
	// wakes it so the runtime can exit.
	hangWait *sim.Queue[struct{}]
}

// Info returns the parsed blob header.
func (g *Graph) Info() graphfile.Info { return *g.info }

// Engine exposes the underlying VPU engine (for profiling tools).
func (g *Graph) Engine() *vpu.Engine { return g.engine }

// InputBytes returns the per-inference USB payload size.
func (g *Graph) InputBytes() int { return g.inputBytes }

// LoadTensor transfers one input to the stick and queues its
// execution (mvncLoadTensor). It returns once the transfer completes
// and the job is accepted — blocking only while the device FIFO is
// full — so the host can overlap other work while the VPU runs.
//
// img must be a preprocessed CHW tensor when the graph is functional;
// for pure performance runs it may be nil (the simulated transfer
// still moves the full tensor size). userParam is returned with the
// matching Result.
func (g *Graph) LoadTensor(p *sim.Proc, img *tensor.T, userParam any) error {
	if g.dead || g.dev.graph != g || g.dev.state != stateOpen {
		return ErrClosed
	}
	if g.functional && img == nil {
		return ErrMissingInput
	}
	g.dev.port.Transfer(p, g.inputBytes)
	if g.dead {
		// The link dropped mid-transfer.
		return ErrClosed
	}
	g.nextID++
	g.fifo.Put(p, job{id: g.nextID, input: img, userParam: userParam})
	if g.dead {
		return ErrClosed
	}
	return nil
}

// GetResult blocks until the oldest queued inference finishes, then
// transfers its result back (mvncGetResult). Results arrive strictly
// in LoadTensor order. A graph killed mid-wait (link drop, device
// reset) fails with ErrClosed — its pending results are lost with the
// device.
func (g *Graph) GetResult(p *sim.Proc) (Result, error) {
	if g.dead {
		return Result{}, ErrClosed
	}
	res := g.results.Get(p)
	if g.dead {
		return Result{}, ErrClosed
	}
	g.dev.port.Transfer(p, g.resultBytes)
	return res, nil
}

// GetResultWithin is GetResult with a completion timeout: it waits at
// most d of virtual time before giving up with ErrResultTimeout. This
// is the health-monitoring primitive of the self-healing pipeline — a
// hung device never completes, so a bounded wait is the only
// deadlock-free way to notice.
func (g *Graph) GetResultWithin(p *sim.Proc, d time.Duration) (Result, error) {
	if g.dead {
		return Result{}, ErrClosed
	}
	res, ok := g.results.GetWithin(p, d)
	if g.dead {
		return Result{}, ErrClosed
	}
	if !ok {
		return Result{}, ErrResultTimeout
	}
	g.dev.port.Transfer(p, g.resultBytes)
	return res, nil
}

// runtime is the RISC scheduler loop: dequeue, launch on the SHAVE
// array, publish the result. Fault checkpoints: a killed graph (link
// drop, reset) exits at the next wake-up, discarding its work; a
// frozen firmware parks at the publish point until the host resets the
// device.
func (g *Graph) runtime(p *sim.Proc) {
	for {
		j := g.fifo.Get(p)
		if g.dead {
			g.drainFIFO()
			return
		}
		if j.shutdown {
			return
		}
		p.Sleep(g.dev.cfg.CommandOverhead)
		if g.dead {
			g.drainFIFO()
			return
		}
		g.dev.meter.SetPower(p.Now(), g.dev.cfg.ActiveWatts)
		g.dev.thermal.advance(p.Now(), g.dev.cfg.ActiveWatts)
		execStart := p.Now()
		d := g.engine.NextExecDuration()
		// Thermal throttling: above the firmware thresholds the SHAVE
		// clock drops, stretching the inference.
		if level, factor := g.dev.thermal.level(); level > 0 {
			d = time.Duration(float64(d) / factor)
			g.dev.thermal.stats.ThrottledInferences++
		}
		// Straggler fault: a slowdown window stretches the service time.
		if g.dev.slow > 1 {
			d = time.Duration(float64(d) * g.dev.slow)
		}
		p.Sleep(d)
		if g.dead {
			g.drainFIFO()
			return
		}
		g.dev.meter.SetPower(p.Now(), g.dev.cfg.IdleWatts)
		g.dev.thermal.advance(p.Now(), g.dev.cfg.IdleWatts)
		if g.dev.onExec != nil {
			g.dev.onExec(g.dev.name, execStart, p.Now())
		}

		res := Result{ID: j.id, UserParam: j.userParam, ExecTime: d}
		if g.dev.transient > 0 {
			// Fault injection: this inference fails recoverably.
			g.dev.transient--
			res.Err = ErrTransient
		} else if g.functional && j.input != nil {
			out, err := g.engine.Infer(j.input)
			res.Output, res.Err = out, err
		}
		// Firmware hang: stop publishing until the host resets the
		// device (which kills this graph and wakes us to exit).
		for g.dev.hung && !g.dead {
			g.hangWait.Get(p)
		}
		if g.dead {
			g.drainFIFO()
			return
		}
		g.results.Put(p, res)
	}
}

// drainFIFO empties a dead graph's FIFO so a host blocked in
// LoadTensor is woken (its load then fails with ErrClosed).
func (g *Graph) drainFIFO() {
	for {
		if _, ok := g.fifo.TryGet(); !ok {
			return
		}
	}
}
