// Package resultstamp exercises the resultstamp analyzer: core.Item
// and core.Result literals that carry payload must stamp the PR 2
// lifecycle timestamps; zero literals and Index-only sentinels pass.
package resultstamp

import (
	"time"

	"repro/internal/core"
)

func sentinelOK() core.Item {
	return core.Item{Index: -1}
}

func zeroOK() core.Item {
	return core.Item{}
}

func payloadBad(label int) core.Item {
	return core.Item{Index: 1, Label: label} // want `core\.Item literal carries payload fields but does not set ArrivedAt`
}

func pointerBad(label int) *core.Item {
	return &core.Item{Label: label} // want `core\.Item literal carries payload fields but does not set ArrivedAt`
}

func stampedOK(now time.Duration) core.Item {
	return core.Item{Index: 1, Label: 3, ArrivedAt: now}
}

func resultZeroOK() core.Result {
	return core.Result{}
}

func resultBad(dev string) core.Result {
	return core.Result{Index: 1, Device: dev} // want `core\.Result literal carries payload fields but does not set ArrivedAt, Start and End`
}

func resultPartialBad(now time.Duration) core.Result {
	return core.Result{Pred: 2, Start: now} // want `does not set ArrivedAt and End`
}

func resultStampedOK(now time.Duration) core.Result {
	return core.Result{Index: 1, Pred: 2, ArrivedAt: now, Start: now, End: now, Device: "cpu"}
}

func allowed() core.Item {
	//ncsw:allow resultstamp fixture: the caller's helper stamps arrival
	return core.Item{Index: 7, Label: 1}
}

func resultImageBad(r core.Result) core.Result {
	return core.Result{Image: r.Image} // want `core\.Result literal carries payload fields but does not set ArrivedAt, Start and End`
}

func stageHopOK(r core.Result) core.Item {
	return core.Item{Index: r.Index, Label: r.Label, ArrivedAt: r.ArrivedAt}
}

func stageHopPointerRestampBad(r *core.Result, now time.Duration) core.Item {
	return core.Item{Index: r.Index, Label: r.Label, ArrivedAt: now} // want `re-stamps ArrivedAt`
}

func stageHopRestampBad(r core.Result, now time.Duration) core.Item {
	return core.Item{Index: r.Index, Image: r.Image, ArrivedAt: now} // want `re-stamps ArrivedAt`
}

func stageHopMissingBad(r core.Result) core.Item {
	return core.Item{Index: r.Index, Label: r.Label} // want `does not set ArrivedAt`
}

func nonHopFreshStampOK(job *struct{ Index int }, now time.Duration) core.Item {
	// An Index taken from anything but a core.Result is not a hop, so
	// a fresh arrival stamp is fine.
	return core.Item{Index: job.Index, Label: 1, ArrivedAt: now}
}
