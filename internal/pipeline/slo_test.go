package pipeline

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSessionSLOAdmissionReport: a session driven past capacity with
// bounded admission must report coherent goodput/shed accounting —
// every arrival is either served or dropped, goodput counts only
// SLO-met completions, and the rendered report carries the columns.
func TestSessionSLOAdmissionReport(t *testing.T) {
	const images = 120
	sess, err := NewFromConfig(Config{
		Images: images,
		Groups: []Group{{Kind: GroupCPU, Batch: 8}},
		// CPU batch-8 capacity is ≈44 img/s; 90/s is far past the knee.
		Arrivals:        core.PoissonArrivals(90),
		SLO:             400 * time.Millisecond,
		AdmissionDepth:  8,
		AdmissionPolicy: core.ShedNewest,
		BatchMaxWait:    30 * time.Millisecond,
		AdaptiveBatch:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	if rep.SLO != 400*time.Millisecond {
		t.Errorf("report SLO %v, want 400ms", rep.SLO)
	}
	dropped := rep.Admission.Shed + rep.Admission.Expired
	if rep.Admission.Arrived != images {
		t.Errorf("admission saw %d arrivals, want %d", rep.Admission.Arrived, images)
	}
	if rep.Images+dropped != images {
		t.Errorf("served %d + dropped %d != %d arrivals", rep.Images, dropped, images)
	}
	if dropped == 0 {
		t.Error("nothing dropped at 2x capacity with an 8-deep ingress")
	}
	if rep.Collector.Arrivals() != images {
		t.Errorf("collector accounts %d arrivals, want %d", rep.Collector.Arrivals(), images)
	}
	if rep.Goodput <= 0 || rep.Goodput >= 1 {
		t.Errorf("goodput %.3f, want in (0,1) past the knee", rep.Goodput)
	}
	if want := float64(dropped) / float64(images); rep.ShedRate != want {
		t.Errorf("shed rate %.3f, want %.3f", rep.ShedRate, want)
	}
	for _, tr := range rep.Targets {
		if tr.Goodput < 0 || tr.Goodput > 1 {
			t.Errorf("group %s goodput %.3f out of range", tr.Name, tr.Goodput)
		}
	}
	out := rep.String()
	for _, needle := range []string{"goodput", "slo 400ms", "shed"} {
		if !strings.Contains(out, needle) {
			t.Errorf("report rendering lacks %q:\n%s", needle, out)
		}
	}
}

// TestSessionSLOWithoutAdmission: with an SLO but unbounded ingress,
// nothing is shed and goodput is simply the SLO-met fraction.
func TestSessionSLOWithoutAdmission(t *testing.T) {
	sess, err := NewFromConfig(Config{
		Images:        60,
		Groups:        []Group{{Kind: GroupCPU, Batch: 8}},
		Arrivals:      core.PoissonArrivals(20), // well below capacity
		SLO:           time.Second,
		BatchMaxWait:  30 * time.Millisecond,
		AdaptiveBatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShedRate != 0 || rep.Admission != (core.AdmissionStats{}) {
		t.Errorf("unbounded session reports drops: shed rate %.3f, admission %+v",
			rep.ShedRate, rep.Admission)
	}
	if rep.Goodput != 1.0 {
		t.Errorf("goodput %.3f, want 1.0 at light load under a 1s SLO", rep.Goodput)
	}
}

// TestSessionOptionValidation: the SLO, admission and adaptive-batching
// settings reject broken values at session construction, and bounded
// admission is accepted only over a paced source.
func TestSessionOptionValidation(t *testing.T) {
	base := func() Config { return Config{Images: 10, Groups: []Group{{Kind: GroupCPU, Batch: 8}}} }
	bad := []func(*Config){
		func(c *Config) { c.SLO = -time.Second },
		func(c *Config) { c.StreamCapacity = new(int); c.AdmissionDepth = -1 },
		func(c *Config) {
			c.StreamCapacity = new(int)
			c.AdmissionDepth = 4
			c.AdmissionPolicy = core.OverloadPolicy(9)
		},
		func(c *Config) { c.AdaptiveBatch = true; c.BatchMaxWait = -time.Millisecond },
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if _, err := NewFromConfig(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Admission against an eager closed-loop dataset would shed the
	// whole set at t=0; the session must refuse the combination.
	cfg := base()
	cfg.AdmissionDepth = 4
	if _, err := NewFromConfig(cfg); err == nil {
		t.Error("admission without a paced source accepted")
	}
	// A stream paces the source as arrivals do, so admission over one
	// is accepted.
	cfg.StreamCapacity = new(int)
	if err := cfg.Validate(); err != nil {
		t.Errorf("admission over a stream refused: %v", err)
	}
	if _, err := NewFromConfig(cfg); err != nil {
		t.Errorf("admission over a stream rejected: %v", err)
	}
}
