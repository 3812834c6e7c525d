// Package usb models the host I/O fabric the NCS devices hang off: a
// USB 3.0 root controller, optional hubs, and per-device links. The
// paper's testbed (Fig. 5) connects 6 sticks through two USB 3.0 hubs
// and 2 sticks directly to motherboard ports; the shared hub uplinks
// are where the "small penalty ... due to the data transferring
// involved" comes from, and this model reproduces that contention.
//
// Transfers are store-and-forward in fixed-size chunks: each chunk
// crosses the device link, then the hub uplink (if any), then the root
// controller, holding one hop at a time. Chunking lets concurrent
// transfers interleave fairly on shared hops, approximating the
// round-robin arbitration of real bulk traffic while keeping the
// simulation deterministic. The hops run as scheduler callbacks, so a
// transfer costs its caller one process resume however many chunks and
// hops it crosses (DESIGN.md §9).
package usb

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Config sets fabric bandwidths and protocol overheads. Bandwidths are
// bytes per second of effective bulk throughput (well below the 5 Gb/s
// line rate, as in practice).
type Config struct {
	// RootBandwidth is the host controller's aggregate throughput.
	RootBandwidth float64
	// HubBandwidth is each hub's uplink throughput.
	HubBandwidth float64
	// DeviceBandwidth caps a single device's link (the NCS's USB
	// implementation, not the cable, is the limit).
	DeviceBandwidth float64
	// ChunkBytes is the store-and-forward granularity.
	ChunkBytes int
	// SetupLatency is the fixed per-transfer cost (driver submit, bulk
	// protocol handshake).
	SetupLatency time.Duration
}

// DefaultConfig matches the paper's testbed hardware: a USB 3.0 xHCI
// root, Sandstrøm USB 3.0 hubs, and NCS sticks whose practical bulk
// throughput tops out near 110 MB/s.
func DefaultConfig() Config {
	return Config{
		RootBandwidth:   400e6,
		HubBandwidth:    300e6,
		DeviceBandwidth: 110e6,
		ChunkBytes:      128 << 10,
		SetupLatency:    200 * time.Microsecond,
	}
}

func (c Config) validate() error {
	if c.RootBandwidth <= 0 || c.HubBandwidth <= 0 || c.DeviceBandwidth <= 0 {
		return fmt.Errorf("usb: non-positive bandwidth in %+v", c)
	}
	if c.ChunkBytes <= 0 {
		return fmt.Errorf("usb: non-positive chunk size %d", c.ChunkBytes)
	}
	if c.SetupLatency < 0 {
		return fmt.Errorf("usb: negative setup latency %v", c.SetupLatency)
	}
	return nil
}

// hop is one shared link along a transfer path.
type hop struct {
	res *sim.Resource
	bw  float64
}

// Fabric is the assembled topology.
type Fabric struct {
	env  *sim.Env
	cfg  Config
	root hop
	hubs []hop
}

// NewFabric creates a fabric with the given config.
func NewFabric(env *sim.Env, cfg Config) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Fabric{
		env:  env,
		cfg:  cfg,
		root: hop{res: env.NewResource("usb/root", 1), bw: cfg.RootBandwidth},
	}, nil
}

// AddHub adds a hub and returns its index.
func (f *Fabric) AddHub() int {
	id := len(f.hubs)
	f.hubs = append(f.hubs, hop{
		res: f.env.NewResource(fmt.Sprintf("usb/hub%d", id), 1),
		bw:  f.cfg.HubBandwidth,
	})
	return id
}

// Hubs returns the number of hubs.
func (f *Fabric) Hubs() int { return len(f.hubs) }

// Port is one attached device's path to the host.
type Port struct {
	fabric *Fabric
	name   string
	path   []hop // device link, [hub], root — in transfer order
	// bytesMoved accumulates traffic for reporting.
	bytesMoved int64
	// slow is the fault-injected link-degradation factor (<=1 = none):
	// a flaky link retrying bulk packets stretches every hop occupancy.
	slow float64
	// idle holds transfer states no transfer is using. Overlapping
	// transfers on one port each take their own; a port that carries
	// one at a time, as a stick's does, allocates one state on its
	// first transfer and reuses it.
	idle *xfer
}

// xfer is one in-flight transfer, run as a chain of scheduler
// callbacks: startChunk (first after the setup latency) sizes the next
// chunk, acquire takes the current hop, hold arms its occupancy and
// release frees it and moves on. The caller stays suspended
// throughout, and the hold of the last hop of the last chunk ends in
// the caller's own resume instead of a callback.
type xfer struct {
	port *Port
	proc *sim.Proc
	// left is the bytes not yet sent; sz is the current chunk's size
	// and hop its position along port.path.
	left, sz, hop int
	// waiter stands in for proc on a busy hop's wait list and runs
	// hold once the hop is handed over; start and done are the
	// startChunk and release method values, bound once so a warm
	// transfer allocates nothing.
	waiter      *sim.Proc
	start, done func()
	next        *xfer
}

// InjectSlowdown models a degraded link (bulk retries, a renegotiated
// speed): every hop occupancy of this port's transfers is stretched
// ×factor until ClearSlowdown. The fault-injection hook internal/fault
// drives for Slowdown faults.
func (p *Port) InjectSlowdown(factor float64) {
	if factor > 1 {
		p.slow = factor
	}
}

// ClearSlowdown ends a link-degradation window.
func (p *Port) ClearSlowdown() { p.slow = 0 }

// AttachDevice attaches a device either behind hub (0 <= hub <
// Hubs()) or directly to the root (hub == -1), as in Fig. 5.
func (f *Fabric) AttachDevice(name string, hub int) (*Port, error) {
	dev := hop{res: f.env.NewResource("usb/dev/"+name, 1), bw: f.cfg.DeviceBandwidth}
	path := []hop{dev}
	switch {
	case hub == -1:
		// direct to root
	case hub >= 0 && hub < len(f.hubs):
		path = append(path, f.hubs[hub])
	default:
		return nil, fmt.Errorf("usb: hub %d does not exist (have %d)", hub, len(f.hubs))
	}
	path = append(path, f.root)
	return &Port{fabric: f, name: name, path: path}, nil
}

// Name returns the port's device name.
func (p *Port) Name() string { return p.name }

// BytesMoved returns the total traffic through this port.
func (p *Port) BytesMoved() int64 { return p.bytesMoved }

// Transfer moves n bytes between host and device, blocking proc in
// virtual time for the full duration (bulk transfers are symmetric
// enough that direction is not modelled). Zero-byte transfers still
// pay the setup latency (a real command/status round trip).
//
// proc is suspended once, for the whole transfer: after the setup
// latency each chunk acquires, holds and releases each hop as
// scheduler callbacks, in the (time, sequence) slots a process doing
// the same steps would resume in, and the hold of the last hop of the
// last chunk ends in proc's own resume, which releases that hop. The
// port's slowdown factor is read as each hop is acquired.
func (p *Port) Transfer(proc *sim.Proc, n int) {
	if n < 0 {
		panic(fmt.Sprintf("usb: negative transfer size %d", n))
	}
	if n == 0 {
		proc.Sleep(p.fabric.cfg.SetupLatency)
		return
	}
	x := p.idle
	if x == nil {
		x = p.newXfer()
	}
	p.idle = x.next
	x.proc, x.left = proc, n
	p.fabric.env.At(proc.Now()+p.fabric.cfg.SetupLatency, x.start)
	proc.Suspend()
	p.path[len(p.path)-1].res.Release()
	x.proc, x.next = nil, p.idle
	p.idle = x
	p.bytesMoved += int64(n)
}

// newXfer allocates a transfer state with its callbacks bound.
func (p *Port) newXfer() *xfer {
	x := &xfer{port: p}
	x.start, x.done = x.startChunk, x.release
	x.waiter = p.fabric.env.Waiter("usb/"+p.name, x.hold)
	return x
}

// startChunk sizes the next chunk and starts it on the first hop.
func (x *xfer) startChunk() {
	x.hop = 0
	x.sz = min(x.port.fabric.cfg.ChunkBytes, x.left)
	x.left -= x.sz
	x.acquire()
}

// acquire takes the current hop, or waits for Release to hand it over
// and run hold.
func (x *xfer) acquire() {
	if x.port.path[x.hop].res.TryAcquireOr(x.waiter) {
		x.hold()
	}
}

// hold occupies the acquired hop for the chunk's time on it. The last
// hop of the last chunk resumes the caller, which releases it.
func (x *xfer) hold() {
	h := x.port.path[x.hop]
	d := durationFor(x.sz, h.bw)
	if x.port.slow > 1 {
		// Degraded link: retries stretch the hop occupancy (and, since
		// the hop is held, everyone sharing it feels it — as real bulk
		// retries do).
		d = time.Duration(float64(d) * x.port.slow)
	}
	env := x.port.fabric.env
	if x.left == 0 && x.hop == len(x.port.path)-1 {
		x.proc.ResumeAt(env.Now() + d)
		return
	}
	env.At(env.Now()+d, x.done)
}

// release frees the held hop and moves the chunk on to the next hop,
// or starts the next chunk after the last.
func (x *xfer) release() {
	x.port.path[x.hop].res.Release()
	x.hop++
	if x.hop == len(x.port.path) {
		x.startChunk()
		return
	}
	x.acquire()
}

// MinDuration estimates the uncontended time for an n-byte transfer;
// experiments use it to report overhead attribution.
func (p *Port) MinDuration(n int) time.Duration {
	d := p.fabric.cfg.SetupLatency
	chunk := p.fabric.cfg.ChunkBytes
	for moved := 0; moved < n; moved += chunk {
		sz := chunk
		if n-moved < sz {
			sz = n - moved
		}
		for _, h := range p.path {
			d += durationFor(sz, h.bw)
		}
	}
	return d
}

func durationFor(bytes int, bw float64) time.Duration {
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// Testbed assembles the paper's Fig. 5 topology for n devices: the
// first 2 devices use motherboard ports, the rest spread across two
// hubs (3+3 at n=8). For n > 8 additional devices keep alternating
// between the two hubs (used by the Fig. 8b projection run).
func Testbed(env *sim.Env, cfg Config, n int) (*Fabric, []*Port, error) {
	f, err := NewFabric(env, cfg)
	if err != nil {
		return nil, nil, err
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("usb: testbed needs at least one device, got %d", n)
	}
	h0 := f.AddHub()
	h1 := f.AddHub()
	ports := make([]*Port, n)
	for i := 0; i < n; i++ {
		hub := -1
		if i >= 2 { // devices 2.. go behind hubs, alternating
			if (i-2)%2 == 0 {
				hub = h0
			} else {
				hub = h1
			}
		}
		p, err := f.AttachDevice(fmt.Sprintf("ncs%d", i), hub)
		if err != nil {
			return nil, nil, err
		}
		ports[i] = p
	}
	return f, ports, nil
}
