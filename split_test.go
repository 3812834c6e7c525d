package repro

import (
	"encoding/json"
	"testing"
)

// TestSplitAcceptance drives split inference through the public
// facade: a VPU head and GPU tail partitioned at a valid GoogLeNet
// cut classify every image exactly once through both stages, and the
// report carries the pipeline metadata.
func TestSplitAcceptance(t *testing.T) {
	net := NewGoogLeNet(Seed(42))
	cuts := net.ValidCuts()
	if len(cuts) == 0 {
		t.Fatal("GoogLeNet has no valid cuts")
	}
	cut := cuts[len(cuts)/2]
	sess, err := NewSession(SessionConfig{
		Images: 48,
		Stages: []StageConfig{VPUStage(2), GPUStage(16)},
		Cuts:   []int{cut},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != 48 {
		t.Errorf("Images = %d, want 48", rep.Images)
	}
	if !rep.Pipeline || len(rep.Cuts) != 1 || rep.Cuts[0] != cut {
		t.Errorf("pipeline metadata: pipeline=%v cuts=%v, want cut %d", rep.Pipeline, rep.Cuts, cut)
	}
	for _, tr := range rep.Targets {
		if tr.Images != 48 {
			t.Errorf("stage %s processed %d images, want 48 (serial stages see every item)", tr.Name, tr.Images)
		}
	}
}

// TestSplitJSONDeterministic locks the -experiment split -json
// contract: the
// whole split experiment at the same seed emits byte-identical
// machine-readable points across two fresh harnesses.
func TestSplitJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full split sweep")
	}
	emit := func() []byte {
		cfg := QuickBenchConfig()
		cfg.ImagesPerSubset = 60
		h, err := NewBenchmarks(cfg)
		if err != nil {
			t.Fatal(err)
		}
		points, err := h.SplitPoints()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := emit(), emit()
	if string(a) != string(b) {
		t.Error("split experiment emissions differ between identical runs")
	}
}
