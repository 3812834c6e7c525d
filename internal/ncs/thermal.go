package ncs

import (
	"math"
	"time"
)

// Thermal model. The real NCSDK exposes device thermal stats and two
// documented throttling levels (MVNC_THERMAL_STATS /
// MVNC_THERMAL_THROTTLING_LEVEL): at level 1 the firmware lowers the
// SHAVE clock, at level 2 it cuts it further to protect the stick. The
// paper's experiments never report throttling — sustained GoogLeNet
// inference keeps the MA2450 just below its first threshold — and the
// default model reproduces that; the thermal ablation configs push the
// thresholds down to show what throttling does to the Fig. 6 curves.
//
// The stick is modelled as a first-order RC thermal circuit:
//
//	T(t+dt) = T_ss + (T(t) − T_ss)·exp(−dt/τ),  T_ss = ambient + R·P
//
// with P the current power state, R the junction-to-ambient thermal
// resistance and τ the thermal time constant.

// ThermalConfig parameterizes the stick's thermal behaviour.
type ThermalConfig struct {
	// AmbientC is the environment temperature.
	AmbientC float64
	// ResistanceCPerW is junction-to-ambient thermal resistance.
	ResistanceCPerW float64
	// TimeConstant is the RC time constant of the stick's thermal
	// mass.
	TimeConstant time.Duration
	// Level1C and Level2C are the throttling thresholds.
	Level1C, Level2C float64
	// Level1Factor and Level2Factor scale the SHAVE clock at each
	// level (1.0 = no slowdown).
	Level1Factor, Level2Factor float64
}

// DefaultThermalConfig models the bare stick in open air: sustained
// inference at ~2.4 W settles near 73 °C, just below the 80 °C first
// threshold — the paper's testbed ran throttle-free.
func DefaultThermalConfig() ThermalConfig {
	return ThermalConfig{
		AmbientC:        25,
		ResistanceCPerW: 20,
		TimeConstant:    40 * time.Second,
		Level1C:         80,
		Level2C:         95,
		Level1Factor:    0.70,
		Level2Factor:    0.40,
	}
}

func (c ThermalConfig) validate() bool {
	return c.ResistanceCPerW > 0 && c.TimeConstant > 0 &&
		c.Level2C >= c.Level1C &&
		c.Level1Factor > 0 && c.Level1Factor <= 1 &&
		c.Level2Factor > 0 && c.Level2Factor <= c.Level1Factor
}

// ThermalStats is the device thermal telemetry (MVNC_THERMAL_STATS).
type ThermalStats struct {
	// TemperatureC is the junction temperature estimate.
	TemperatureC float64
	// ThrottleLevel is 0 (full speed), 1 or 2.
	ThrottleLevel int
	// ThrottledInferences counts inferences executed below full clock.
	ThrottledInferences int64
	// PeakC is the highest temperature reached.
	PeakC float64
}

// thermalState is the device-side integrator.
type thermalState struct {
	cfg        ThermalConfig
	tempC      float64
	lastUpdate time.Duration
	lastWatts  float64
	stats      ThermalStats
}

func newThermalState(cfg ThermalConfig, idleWatts float64) *thermalState {
	t := &thermalState{cfg: cfg, tempC: cfg.AmbientC, lastWatts: idleWatts}
	t.stats.TemperatureC = cfg.AmbientC
	t.stats.PeakC = cfg.AmbientC
	return t
}

// advance integrates the temperature to `now` under the power level
// that has been applied since the last update, then records the new
// power level.
func (t *thermalState) advance(now time.Duration, watts float64) {
	dt := now - t.lastUpdate
	if dt > 0 {
		tss := t.cfg.AmbientC + t.cfg.ResistanceCPerW*t.lastWatts
		decay := math.Exp(-dt.Seconds() / t.cfg.TimeConstant.Seconds())
		t.tempC = tss + (t.tempC-tss)*decay
		if t.tempC > t.stats.PeakC {
			t.stats.PeakC = t.tempC
		}
	}
	t.lastUpdate = now
	t.lastWatts = watts
	t.stats.TemperatureC = t.tempC
}

// level returns the current throttle level and clock factor.
func (t *thermalState) level() (int, float64) {
	switch {
	case t.tempC >= t.cfg.Level2C:
		return 2, t.cfg.Level2Factor
	case t.tempC >= t.cfg.Level1C:
		return 1, t.cfg.Level1Factor
	default:
		return 0, 1.0
	}
}
