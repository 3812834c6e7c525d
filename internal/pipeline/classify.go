package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// completion is one delivery of a functional session by group.
type completion struct {
	core.Result
	group int
}

// classify predicts every delivery of a functional session (VPU
// groups' in FP16 on the net parsed from the graph file, CPU and GPU
// groups' in FP32, from each item's image or else the dataset's) and
// scores each collector's deliveries in its delivery order (DESIGN.md
// §1). A custom target's predictions are kept.
func (s *Session) classify() error {
	done := s.done
	s.done = nil
	for _, vpu := range []bool{false, true} {
		var which []int
		for k, c := range done {
			if kind := s.cfg.Groups[c.group].Kind; c.Pred < 0 && kind != GroupCustom && (kind == GroupVPU) == vpu {
				if c.Image == nil && (c.Index < 0 || c.Index >= s.ds.Len()) {
					return fmt.Errorf("pipeline: classify: item %d carries no image and is not in the dataset", c.Index)
				}
				which = append(which, k)
			}
		}
		if len(which) == 0 {
			continue
		}
		pass := nn.Pass{Net: s.net, Prec: nn.FP32}
		if vpu {
			net16, _, err := s.blob.Parse()
			if err != nil {
				return fmt.Errorf("pipeline: classify: %w", err)
			}
			pass = nn.Pass{Net: net16, Prec: nn.FP16}
		}
		preds, err := nn.Classify(len(which), func(i int) *tensor.T {
			if c := done[which[i]]; c.Image != nil {
				return c.Image
			}
			return s.ds.Preprocessed(done[which[i]].Index)
		}, pass)
		if err != nil {
			return fmt.Errorf("pipeline: classify: %w", err)
		}
		for i, p := range preds[0] {
			done[which[i]].Pred, done[which[i]].Confidence = p.Class, p.Conf
		}
	}
	for k, c := range done {
		s.merged.Score(c.Label, c.Pred, c.Confidence)
		s.perGroup[c.group].Score(c.Label, c.Pred, c.Confidence)
		if i, ok := s.tenantIdx[c.Tenant]; ok {
			s.perTenant[i].Score(c.Label, c.Pred, c.Confidence)
		}
		if s.cfg.Retain {
			s.merged.Results[k].Pred, s.merged.Results[k].Confidence = c.Pred, c.Confidence
		}
	}
	return nil
}
