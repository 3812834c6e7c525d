package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphfile"
	"repro/internal/nn"
)

// Stage declares one stage of a model-parallel (split-inference)
// session: a device group that runs one contiguous segment of the
// workload network, streaming its output activations to the next
// stage. Configure a session by filling Config.Stages and
// Config.Cuts.
type Stage struct {
	// Group is the device group running this stage's segment. All
	// group knobs apply (batch size, stick count, VPU options, custom
	// targets); Weight is ignored — pipeline stages are serial, not
	// dealt.
	Group Group
	// Queue bounds the in-flight window between this stage and the
	// next: at most Queue activations past this stage's input pull and
	// not yet pulled by the next stage. 0 uses the session QueueDepth
	// (default 2). Ignored on the last stage. For an interior CPU/GPU
	// stage the window is floored at the stage's batch size — a full
	// batch must fit in flight or it could never assemble.
	Queue int
	// Replicas widens the stage: instead of one device group, the
	// stage runs as a health-aware Pool of this many identical copies
	// of Group, dealt work by the pool's adaptive routing. The
	// pipeline's serial order and boundary windows are unchanged — a
	// replicated stage is just a wider stage, soaking up a bottleneck
	// segment without recutting the network. 0 or 1 is a single group;
	// custom stages cannot be replicated (one caller-built Target
	// cannot serve as several).
	Replicas int
}

// Replicated returns a copy of the stage widened to n replica groups
// (see Replicas).
func (st Stage) Replicated(n int) Stage {
	st.Replicas = n
	return st
}

// CPUStage declares a pipeline stage on the Caffe-MKL CPU at the
// given batch size.
func CPUStage(batch int) Stage { return Stage{Group: Group{Kind: GroupCPU, Batch: batch}} }

// GPUStage declares a pipeline stage on the Caffe-cuDNN GPU at the
// given batch size.
func GPUStage(batch int) Stage { return Stage{Group: Group{Kind: GroupGPU, Batch: batch}} }

// VPUStage declares a pipeline stage on n Neural Compute Sticks
// running the parallel NCSw pipeline over the stage's segment.
func VPUStage(n int) Stage { return Stage{Group: Group{Kind: GroupVPU, Devices: n}} }

// CustomStage declares a pipeline stage on a caller-provided target,
// used as-is (the target prices whatever cost model it implements —
// the session does not hand it a segment graph).
func CustomStage(t core.Target) Stage { return Stage{Group: Group{Kind: GroupCustom, Target: t}} }

// resolvedStage is one effective stage after segment resolution:
// empty segments are collapsed away before any device is built, so a
// degenerate cut never registers hardware the equivalent single-group
// session would not have.
type resolvedStage struct {
	spec Stage
	// seg is the stage's network segment (nil for custom stages).
	seg *nn.Graph
	// blob is the segment's compiled NCS graph file (VPU stages only).
	blob *graphfile.Handle
	// cut is the whole-network layer index where the segment begins.
	cut int
}

// stageMode reports whether the session runs as a model-parallel
// pipeline (more than one effective stage; single-stage sessions
// collapse to the classic group path).
func (s *Session) stageMode() bool { return len(s.stages) > 0 }

// Cuts returns the effective whole-network cut indices between the
// session's stages (nil for non-pipeline sessions). Degenerate cuts
// collapse their empty stage, so every returned cut is interior.
func (s *Session) Cuts() []int {
	var cuts []int
	for _, st := range s.stages[1:] {
		cuts = append(cuts, st.cut)
	}
	return cuts
}

// Segments returns the per-stage network segments (nil entries for
// custom stages; nil for non-pipeline sessions).
func (s *Session) Segments() []*nn.Graph {
	var segs []*nn.Graph
	for _, st := range s.stages {
		segs = append(segs, st.seg)
	}
	return segs
}

// resolveStages splits the workload network at the configured cuts
// and collapses empty segments. Stages are resolved before any device
// or blob is built: a session whose cuts leave a single effective
// stage is rewritten into the equivalent classic single-group session
// — same construction order, same event sequence, bit-identical run.
func (s *Session) resolveStages() error {
	specs, cuts := s.cfg.Stages, s.cfg.Cuts
	if len(specs) == 1 {
		// A one-stage pipeline is the classic single-group session.
		s.cfg.Groups = []Group{specs[0].Group}
		s.cfg.Stages, s.cfg.Cuts = nil, nil
		return nil
	}
	n := s.net.Len()
	bounds := make([]int, 0, len(specs)+1)
	bounds = append(bounds, 0)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, n)
	for i, c := range cuts {
		if c < 0 || c > n {
			return fmt.Errorf("pipeline: cut %d out of range [0,%d]", c, n)
		}
		if c < bounds[i] {
			return fmt.Errorf("pipeline: cuts not ascending: %v", cuts)
		}
	}

	var eff []resolvedStage
	remaining := s.net
	base := 0
	for i, spec := range specs {
		lo, hi := bounds[i], bounds[i+1]
		if spec.Group.Kind == GroupCustom {
			// A custom stage prices its own model and carries no network
			// segment, so its span of the partition must be empty.
			if lo != hi {
				return fmt.Errorf("pipeline: stage %d: custom stage cannot consume network layers %d..%d; give it an empty span", i, lo, hi)
			}
			eff = append(eff, resolvedStage{spec: spec, cut: lo})
			continue
		}
		if lo == hi {
			continue // empty segment: collapse the stage away
		}
		var seg *nn.Graph
		if hi == n {
			seg = remaining
			remaining = nil
		} else {
			head, tail, err := remaining.Split(hi - base)
			if err != nil {
				return fmt.Errorf("pipeline: stage %d: %w", i, err)
			}
			seg, remaining = head, tail
		}
		base = hi
		eff = append(eff, resolvedStage{spec: spec, seg: seg, cut: lo})
	}
	if len(eff) == 0 {
		return fmt.Errorf("pipeline: every stage is empty")
	}

	if len(eff) == 1 && eff[0].seg == s.net {
		// One effective stage over the whole network: run the classic
		// single-group session, bit-identical to never having split.
		s.cfg.Groups = []Group{eff[0].spec.Group}
		s.cfg.Stages, s.cfg.Cuts = nil, nil
		return nil
	}

	// Compile each VPU stage's segment. The session-level blob slot
	// keeps the first stage blob so Session.Blob() stays meaningful.
	for i := range eff {
		if eff[i].spec.Group.Kind != GroupVPU {
			continue
		}
		blob, err := s.compileBlob(eff[i].seg, eff[i].cut)
		if err != nil {
			return fmt.Errorf("pipeline: compile stage %d segment: %w", i, err)
		}
		eff[i].blob = blob
		if s.blob == nil {
			s.blob = blob
		}
	}
	s.stages = eff
	return nil
}
