package usb

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func mustFabric(t *testing.T, env *sim.Env, cfg Config) *Fabric {
	t.Helper()
	f, err := NewFabric(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSingleTransferDuration(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	f := mustFabric(t, env, cfg)
	port, err := f.AttachDevice("d0", -1)
	if err != nil {
		t.Fatal(err)
	}
	n := 294 * 1024 // one FP16 224x224x3 tensor
	var took time.Duration
	env.Process("xfer", func(p *sim.Proc) {
		start := p.Now()
		port.Transfer(p, n)
		took = p.Now() - start
	})
	env.Run()
	want := port.MinDuration(n)
	if took != want {
		t.Errorf("uncontended transfer took %v, MinDuration says %v", took, want)
	}
	// Sanity: a ~300 KB transfer should take single-digit milliseconds.
	if took < 1*time.Millisecond || took > 10*time.Millisecond {
		t.Errorf("transfer time %v outside expected range", took)
	}
	if port.BytesMoved() != int64(n) {
		t.Errorf("BytesMoved = %d", port.BytesMoved())
	}
}

func TestZeroByteTransferPaysSetup(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	f := mustFabric(t, env, cfg)
	port, _ := f.AttachDevice("d0", -1)
	var took time.Duration
	env.Process("xfer", func(p *sim.Proc) {
		start := p.Now()
		port.Transfer(p, 0)
		took = p.Now() - start
	})
	env.Run()
	if took != cfg.SetupLatency {
		t.Errorf("zero transfer took %v, want setup %v", took, cfg.SetupLatency)
	}
}

func TestHubContentionSlowsSharers(t *testing.T) {
	cfg := DefaultConfig()
	n := 2 << 20 // 2 MB so contention dominates setup costs

	solo := measureConcurrent(t, cfg, 1, n)
	trio := measureConcurrent(t, cfg, 3, n)
	if trio <= solo {
		t.Fatalf("3 concurrent sharers (%v) should be slower than solo (%v)", trio, solo)
	}
	// Three devices at 110 MB/s want 330 MB/s through a 300 MB/s hub:
	// mild contention, so the slowdown must be well under 3x.
	if float64(trio)/float64(solo) > 2 {
		t.Errorf("slowdown %.2fx too severe for mild oversubscription", float64(trio)/float64(solo))
	}
}

// measureConcurrent runs k simultaneous n-byte transfers behind one
// hub and returns the makespan.
func measureConcurrent(t *testing.T, cfg Config, k, n int) time.Duration {
	t.Helper()
	env := sim.NewEnv()
	f := mustFabric(t, env, cfg)
	hub := f.AddHub()
	for i := 0; i < k; i++ {
		port, err := f.AttachDevice("d", hub)
		if err != nil {
			t.Fatal(err)
		}
		env.Process("xfer", func(p *sim.Proc) {
			port.Transfer(p, n)
		})
	}
	env.Run()
	return env.Now()
}

func TestDirectPortFasterThanHubUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	n := 1 << 20

	// Two devices on one hub vs two devices on separate direct ports.
	hubTime := measureConcurrent(t, cfg, 2, n)

	env := sim.NewEnv()
	f := mustFabric(t, env, cfg)
	for i := 0; i < 2; i++ {
		port, _ := f.AttachDevice("d", -1)
		env.Process("xfer", func(p *sim.Proc) { port.Transfer(p, n) })
	}
	env.Run()
	directTime := env.Now()

	if directTime > hubTime {
		t.Errorf("direct ports (%v) should be no slower than shared hub (%v)", directTime, hubTime)
	}
}

func TestAttachDeviceErrors(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(t, env, DefaultConfig())
	if _, err := f.AttachDevice("d", 0); err == nil {
		t.Error("attaching to a nonexistent hub must fail")
	}
	if _, err := f.AttachDevice("d", -2); err == nil {
		t.Error("hub -2 must fail")
	}
	f.AddHub()
	if _, err := f.AttachDevice("d", 0); err != nil {
		t.Errorf("valid hub attach failed: %v", err)
	}
	if f.Hubs() != 1 {
		t.Errorf("Hubs = %d", f.Hubs())
	}
}

func TestConfigValidation(t *testing.T) {
	env := sim.NewEnv()
	bad := []Config{
		{RootBandwidth: 0, HubBandwidth: 1, DeviceBandwidth: 1, ChunkBytes: 1},
		{RootBandwidth: 1, HubBandwidth: 1, DeviceBandwidth: 1, ChunkBytes: 0},
		{RootBandwidth: 1, HubBandwidth: 1, DeviceBandwidth: 1, ChunkBytes: 1, SetupLatency: -1},
	}
	for i, cfg := range bad {
		if _, err := NewFabric(env, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(t, env, DefaultConfig())
	port, _ := f.AttachDevice("d", -1)
	env.Process("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		port.Transfer(p, -1)
	})
	env.Run()
}

func TestTestbedTopology(t *testing.T) {
	env := sim.NewEnv()
	f, ports, err := Testbed(env, DefaultConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 8 {
		t.Fatalf("ports = %d", len(ports))
	}
	if f.Hubs() != 2 {
		t.Errorf("hubs = %d, want 2", f.Hubs())
	}
	// First two ports have 2 hops (device, root); the rest 3.
	for i, p := range ports {
		want := 3
		if i < 2 {
			want = 2
		}
		if len(p.path) != want {
			t.Errorf("port %d path length %d, want %d", i, len(p.path), want)
		}
	}
}

func TestTestbedErrors(t *testing.T) {
	env := sim.NewEnv()
	if _, _, err := Testbed(env, DefaultConfig(), 0); err == nil {
		t.Error("0 devices must fail")
	}
	if _, _, err := Testbed(env, Config{}, 4); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestTestbed16DevicesForProjection(t *testing.T) {
	env := sim.NewEnv()
	_, ports, err := Testbed(env, DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 16 {
		t.Fatalf("ports = %d", len(ports))
	}
	// Hub devices split evenly: 7 on each hub beyond the 2 direct.
	counts := map[*sim.Resource]int{}
	for _, p := range ports[2:] {
		counts[p.path[1].res]++
	}
	for _, c := range counts {
		if c != 7 {
			t.Errorf("hub has %d devices, want 7", c)
		}
	}
}

func TestAggregateThroughputRespectsRootCap(t *testing.T) {
	// Many devices on direct ports: aggregate throughput must not
	// exceed the root controller's bandwidth.
	cfg := DefaultConfig()
	cfg.SetupLatency = 0
	env := sim.NewEnv()
	f := mustFabric(t, env, cfg)
	n := 4 << 20
	k := 8
	for i := 0; i < k; i++ {
		port, _ := f.AttachDevice("d", -1)
		env.Process("xfer", func(p *sim.Proc) { port.Transfer(p, n) })
	}
	env.Run()
	total := float64(k * n)
	rate := total / env.Now().Seconds()
	if rate > cfg.RootBandwidth*1.01 {
		t.Errorf("aggregate rate %.0f exceeds root cap %.0f", rate, cfg.RootBandwidth)
	}
	// And it should get reasonably close to the cap under saturation.
	if rate < cfg.RootBandwidth*0.6 {
		t.Errorf("aggregate rate %.0f far below root cap %.0f", rate, cfg.RootBandwidth)
	}
}

// TestInjectSlowdownStretchesTransfers: a degraded link stretches
// every hop occupancy; clearing it restores the baseline exactly.
func TestInjectSlowdownStretchesTransfers(t *testing.T) {
	env := sim.NewEnv()
	f := mustFabric(t, env, DefaultConfig())
	port, err := f.AttachDevice("d0", -1)
	if err != nil {
		t.Fatal(err)
	}
	n := 294 * 1024
	var normal, slowed, restored time.Duration
	env.Process("xfer", func(p *sim.Proc) {
		move := func() time.Duration {
			start := p.Now()
			port.Transfer(p, n)
			return p.Now() - start
		}
		normal = move()
		port.InjectSlowdown(3)
		slowed = move()
		port.ClearSlowdown()
		restored = move()
	})
	env.Run()
	// Hop time dominates over the fixed setup latency, so x3 on the
	// hops should land past 2x overall.
	if slowed < normal*2 {
		t.Errorf("degraded transfer %v not clearly slower than baseline %v", slowed, normal)
	}
	if restored != normal {
		t.Errorf("transfer after ClearSlowdown %v, want baseline %v", restored, normal)
	}
}

// Hubs returns the number of hubs.
func (f *Fabric) Hubs() int { return len(f.hubs) }

// BytesMoved returns the total traffic through this port.
func (p *Port) BytesMoved() int64 { return p.bytesMoved }

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
