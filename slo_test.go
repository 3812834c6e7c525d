package repro

import (
	"reflect"
	"testing"

	"repro/internal/bench"
)

// sloTestConfig shrinks the slo experiment to test scale.
func sloTestConfig() bench.Config {
	return bench.Config{
		ImagesPerSubset:           150,
		Subsets:                   5,
		FunctionalImagesPerSubset: 1,
		Seed:                      1,
	}
}

func sloTestPoints(t *testing.T) []bench.SLOPoint {
	t.Helper()
	h, err := bench.NewHarness(sloTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	points, err := h.SLOPoints()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestSLOAcceptance is the issue's acceptance scenario: for at least
// one device group, adaptive batching must beat fixed-batch p99 at
// equal offered load below the knee, and bounded admission must hold
// goodput above the unbounded configuration past the knee.
func TestSLOAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full slo experiment run skipped in -short mode (race job); the test job runs it")
	}
	points := sloTestPoints(t)

	type cell struct{ p99, goodput float64 }
	fixedOpen := map[string]cell{}    // below-knee (lightest load) fixed/open
	adaptiveOpen := map[string]cell{} // below-knee adaptive/open
	openTop := map[string]cell{}      // past-knee (heaviest load) open
	boundedTop := map[string]cell{}   // past-knee bounded
	const lo, hi = 0.5, 1.3
	for _, p := range points {
		c := cell{p99: p.P99MS, goodput: p.GoodputPct}
		switch {
		case p.LoadFraction == lo && p.Batching == "fixed" && p.Admission == "open":
			fixedOpen[p.Device] = c
		case p.LoadFraction == lo && p.Batching == "adaptive" && p.Admission == "open":
			adaptiveOpen[p.Device] = c
		case p.LoadFraction == hi && p.Admission == "open" && p.Batching != "fixed":
			openTop[p.Device] = c
		case p.LoadFraction == hi && p.Admission == "bounded":
			boundedTop[p.Device] = c
		}
	}

	adaptiveWins, boundedWins := 0, 0
	for dev, f := range fixedOpen {
		a, ok := adaptiveOpen[dev]
		if !ok {
			t.Errorf("%s: no adaptive/open point at %.0f%% load", dev, lo*100)
			continue
		}
		if a.p99 < f.p99 {
			adaptiveWins++
		} else {
			t.Logf("%s: adaptive p99 %.1fms vs fixed %.1fms below the knee", dev, a.p99, f.p99)
		}
	}
	for dev, o := range openTop {
		b, ok := boundedTop[dev]
		if !ok {
			t.Errorf("%s: no bounded point at %.0f%% load", dev, hi*100)
			continue
		}
		if b.goodput > o.goodput {
			boundedWins++
		} else {
			t.Logf("%s: bounded goodput %.1f%% vs open %.1f%% past the knee", dev, b.goodput, o.goodput)
		}
	}
	if adaptiveWins == 0 {
		t.Error("no device group shows adaptive batching beating fixed-batch p99 below the knee")
	}
	if boundedWins == 0 {
		t.Error("no device group shows bounded admission holding goodput above unbounded past the knee")
	}
}

// TestSLOPointsDeterminism: two slo experiment runs from identically
// configured harnesses agree bit for bit — the property the CI
// determinism job guards on the emitted JSON. Skipped under -short
// (the race job): the double experiment run is the costliest test in
// the package and the bench-smoke job checks the same property on
// the real emission path.
func TestSLOPointsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double experiment run skipped in -short mode")
	}
	a := sloTestPoints(t)
	b := sloTestPoints(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("slo points differ between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}
