package ncs

import (
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// aggressiveThermal returns a config that throttles quickly: a hot
// environment, fast thermal response and low thresholds.
func aggressiveThermal() ThermalConfig {
	return ThermalConfig{
		AmbientC:        45,
		ResistanceCPerW: 20,
		TimeConstant:    2 * time.Second,
		Level1C:         60,
		Level2C:         75,
		Level1Factor:    0.5,
		Level2Factor:    0.25,
	}
}

// runInferences drives n sequential inferences on one stick with the
// given config and returns the device plus per-inference spans.
func runInferences(t *testing.T, cfg Config, n int) (*Device, []time.Duration) {
	t.Helper()
	r := newRig(t, 1, nn.NewGoogLeNet(rng.New(1)))
	d := r.devices[0]
	// Swap in the requested config (rig builds with defaults).
	dev, err := NewDevice(r.env, "thermo", d.port, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var spans []time.Duration
	r.env.Process("host", func(p *sim.Proc) {
		if err := dev.Open(p); err != nil {
			t.Error(err)
			return
		}
		g, err := dev.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			start := p.Now()
			if err := g.LoadTensor(p, nil, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := g.GetResult(p); err != nil {
				t.Error(err)
				return
			}
			spans = append(spans, p.Now()-start)
		}
		if err := dev.Close(p); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	return dev, spans
}

func TestDefaultConfigDoesNotThrottle(t *testing.T) {
	// The paper's sustained runs show no throttling artefacts; the
	// default thermal model must stay below the first threshold.
	dev, spans := runInferences(t, DefaultConfig(), 60)
	stats := dev.ThermalStats()
	if stats.ThrottledInferences != 0 || stats.ThrottleLevel != 0 {
		t.Errorf("default config throttled: %+v", stats)
	}
	if stats.PeakC >= DefaultThermalConfig().Level1C {
		t.Errorf("peak %0.1f C reached the %0.1f C threshold", stats.PeakC, DefaultThermalConfig().Level1C)
	}
	// Temperature must have risen well above ambient under load.
	if stats.TemperatureC < DefaultThermalConfig().AmbientC+5 {
		t.Errorf("temperature %.1f C barely above ambient after 60 inferences", stats.TemperatureC)
	}
	// Latency stays flat (no thermal drift).
	first, last := spans[0], spans[len(spans)-1]
	if ratio := float64(last) / float64(first); ratio > 1.1 {
		t.Errorf("latency drifted %.2fx without throttling", ratio)
	}
}

func TestAggressiveConfigThrottles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Thermal = aggressiveThermal()
	dev, spans := runInferences(t, cfg, 60)
	stats := dev.ThermalStats()
	if stats.ThrottledInferences == 0 {
		t.Fatalf("aggressive thermal config never throttled: %+v", stats)
	}
	if stats.PeakC < cfg.Thermal.Level1C {
		t.Errorf("peak %.1f C below threshold yet throttled", stats.PeakC)
	}
	// Throttled inferences take visibly longer than the first (cold)
	// ones: at level 1 the exec stretches by 1/0.5.
	first, last := spans[0], spans[len(spans)-1]
	if float64(last) < 1.3*float64(first) {
		t.Errorf("throttling did not stretch latency: first %v, last %v", first, last)
	}
}

func TestThrottlingReachesLevel2AndStabilizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Thermal = aggressiveThermal()
	// Level 2 slows the clock enough that the duty cycle drops and the
	// temperature stabilizes around the threshold region.
	dev, _ := runInferences(t, cfg, 200)
	stats := dev.ThermalStats()
	if stats.PeakC < cfg.Thermal.Level2C {
		t.Skipf("level 2 not reached (peak %.1f C); model stabilized earlier", stats.PeakC)
	}
	// Even at level 2 the stick must not run away thermally: peak
	// bounded by the steady state of continuous max power.
	tss := cfg.Thermal.AmbientC + cfg.Thermal.ResistanceCPerW*cfg.ActiveWatts
	if stats.PeakC > tss+1 {
		t.Errorf("peak %.1f C beyond physical steady state %.1f C", stats.PeakC, tss)
	}
}

func TestThermalCooldown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Thermal = aggressiveThermal()
	r := newRig(t, 1, nn.NewGoogLeNet(rng.New(1)))
	dev, err := NewDevice(r.env, "cool", r.devices[0].port, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var hotC, coolC float64
	r.env.Process("host", func(p *sim.Proc) {
		if err := dev.Open(p); err != nil {
			t.Error(err)
			return
		}
		g, err := dev.AllocateGraph(p, r.blob, GraphOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 40; i++ {
			if err := g.LoadTensor(p, nil, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := g.GetResult(p); err != nil {
				t.Error(err)
				return
			}
		}
		hotC = dev.ThermalStats().TemperatureC
		// Idle for several time constants, then run one inference so
		// the integrator advances.
		p.Sleep(20 * time.Second)
		if err := g.LoadTensor(p, nil, nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := g.GetResult(p); err != nil {
			t.Error(err)
			return
		}
		coolC = dev.ThermalStats().TemperatureC
		if err := dev.Close(p); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	if coolC >= hotC-5 {
		t.Errorf("idle cooldown ineffective: %.1f C -> %.1f C", hotC, coolC)
	}
	// Cooldown approaches the idle steady state, not ambient.
	idleSS := cfg.Thermal.AmbientC + cfg.Thermal.ResistanceCPerW*cfg.IdleWatts
	if coolC < cfg.Thermal.AmbientC || coolC > idleSS+15 {
		t.Errorf("cooled temperature %.1f C outside [ambient, idle steady state+margin]", coolC)
	}
}

func TestThermalConfigValidation(t *testing.T) {
	bad := []ThermalConfig{
		{ResistanceCPerW: 0, TimeConstant: time.Second, Level1C: 60, Level2C: 70, Level1Factor: 0.5, Level2Factor: 0.25},
		{ResistanceCPerW: 20, TimeConstant: 0, Level1C: 60, Level2C: 70, Level1Factor: 0.5, Level2Factor: 0.25},
		{ResistanceCPerW: 20, TimeConstant: time.Second, Level1C: 80, Level2C: 70, Level1Factor: 0.5, Level2Factor: 0.25},
		{ResistanceCPerW: 20, TimeConstant: time.Second, Level1C: 60, Level2C: 70, Level1Factor: 0, Level2Factor: 0.25},
		{ResistanceCPerW: 20, TimeConstant: time.Second, Level1C: 60, Level2C: 70, Level1Factor: 0.5, Level2Factor: 0.7},
	}
	env := sim.NewEnv()
	r := newRig(t, 1, nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1)))
	_ = env
	for i, tc := range bad {
		cfg := DefaultConfig()
		cfg.Thermal = tc
		if _, err := NewDevice(r.env, "x", r.devices[0].port, cfg, rng.New(0)); err == nil {
			t.Errorf("thermal config %d accepted", i)
		}
	}
}

func TestThermalStatsZeroValue(t *testing.T) {
	var d Device
	if s := d.ThermalStats(); s != (ThermalStats{}) {
		t.Errorf("nil thermal state should give zero stats, got %+v", s)
	}
}

// ThermalStats returns the device's thermal telemetry as of the last
// runtime activity.
func (d *Device) ThermalStats() ThermalStats {
	if d.thermal == nil {
		return ThermalStats{}
	}
	s := d.thermal.stats
	s.ThrottleLevel, _ = d.thermal.level()
	return s
}
