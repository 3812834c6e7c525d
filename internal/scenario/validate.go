package scenario

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/pipeline"
)

// Validation: every rule failure is a field.Error whose path is the
// JSON field path of the offending value ("fleet.groups[0].kind: ..."),
// so a scenario author can fix a file from the error alone. Parse wraps
// these with the file name.
//
// Only the rules a pipeline.Config cannot see live in this package:
// the name, the enum spellings (network, kinds, policies — the tables
// in compile.go), whether a section is present (an empty admission or hedge section
// lowers to a disabled knob), the arrival specs (the core arrival
// constructors panic on bad parameters, and a Config holds only built
// processes) and the reload schedule. Everything else is
// pipeline.Config.Validate's: the scenario is lowered onto a Config,
// validated there, and the Go field path of any error is translated
// into the JSON path. Cut names are the one thing validated later —
// they need the workload network, so Compile resolves and checks them.

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// Validate checks every semantic rule a scenario must satisfy before
// compilation; the returned error names the offending field path.
func (sc *Scenario) Validate() error {
	_, err := sc.check()
	return err
}

// check runs the file-format rules, lowers the scenario onto a
// pipeline.Config and validates that config, returning it for Compile.
func (sc *Scenario) check() (pipeline.Config, error) {
	if err := sc.validateFormat(); err != nil {
		return pipeline.Config{}, err
	}
	cfg, err := sc.lower()
	if err != nil {
		return pipeline.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		var fe *field.Error
		if errors.As(err, &fe) {
			err = &field.Error{Path: jsonPath(fe.Path), Err: fe.Err}
		}
		return pipeline.Config{}, err
	}
	return cfg, nil
}

func (sc *Scenario) validateFormat() error {
	if sc.Name == "" {
		return field.Errorf("name", "required (a scenario must name itself)")
	}
	if t := sc.Traffic; t != nil {
		if t.ArrivalLabel != "" && t.Arrivals == nil {
			return field.Errorf("traffic.arrival_label", "needs traffic.arrivals")
		}
		if t.Arrivals != nil {
			if err := validateArrival("traffic.arrivals", t.Arrivals, false); err != nil {
				return err
			}
		}
		if ts := t.Tenants; ts != nil {
			if len(ts.Tenants) == 0 {
				return field.Errorf("traffic.tenants.tenants", "need at least one tenant")
			}
			for i, tn := range ts.Tenants {
				p := fmt.Sprintf("traffic.tenants.tenants[%d].arrivals", i)
				if tn.Arrivals == nil {
					return field.Errorf(p, "required (every tenant drives its own traffic)")
				}
				if err := validateArrival(p, tn.Arrivals, false); err != nil {
					return err
				}
			}
		}
	}
	if ad := sc.Admission; ad != nil && ad.Depth < 1 {
		return field.Errorf("admission.depth", "depth %d (need >= 1)", ad.Depth)
	}
	if h := sc.Hedge; h != nil && h.Trigger == 0 && h.Quantile == 0 {
		return field.Errorf("hedge", "needs a trigger or a quantile")
	}
	if r := sc.Recovery; r != nil && r.Timeout <= 0 {
		return field.Errorf("recovery.timeout", "heartbeat %v (need > 0)", r.Timeout.Std())
	}
	return sc.validateReloads()
}

// validateArrival checks one arrival spec; the checks mirror the
// constructor preconditions in internal/core exactly, so a validated
// spec can never panic a constructor. nested marks a phase of a
// phased schedule, where "silence" is legal and "phased" is not.
func validateArrival(path string, a *ArrivalSpec, nested bool) error {
	switch a.Process {
	case "deterministic", "poisson":
		if !finitePositive(a.Rate) {
			return field.Errorf(path+".rate", "arrival rate %g (need positive finite)", a.Rate)
		}
	case "bursty":
		if !finitePositive(a.Rate) {
			return field.Errorf(path+".rate", "arrival rate %g (need positive finite)", a.Rate)
		}
		if a.On <= 0 {
			return field.Errorf(path+".on", "on-phase %v (need > 0)", a.On.Std())
		}
		if a.Off < 0 {
			return field.Errorf(path+".off", "negative off-phase %v", a.Off.Std())
		}
		if period := time.Duration(float64(time.Second) / a.Rate); a.On.Std() < period {
			return field.Errorf(path+".on", "on-phase %v holds no arrivals at %g/s (period %v)", a.On.Std(), a.Rate, period)
		}
	case "trace":
		if len(a.Instants) == 0 {
			return field.Errorf(path+".instants", "empty trace")
		}
		for i, ins := range a.Instants {
			if ins < 0 {
				return field.Errorf(fmt.Sprintf("%s.instants[%d]", path, i), "negative instant %v", ins.Std())
			}
		}
	case "phased":
		if nested {
			return field.Errorf(path+".process", "phased schedules cannot nest")
		}
		if len(a.Phases) == 0 {
			return field.Errorf(path+".phases", "need at least one phase")
		}
		silent := true
		for i, ph := range a.Phases {
			p := fmt.Sprintf("%s.phases[%d]", path, i)
			if ph.Duration <= 0 {
				return field.Errorf(p+".duration", "phase duration %v (need > 0)", ph.Duration.Std())
			}
			if ph.Process != "silence" {
				silent = false
			}
			if err := validateArrival(p, &ph.ArrivalSpec, true); err != nil {
				return err
			}
		}
		if silent {
			return field.Errorf(path+".phases", "every phase silent")
		}
	case "silence":
		if !nested {
			return field.Errorf(path+".process", "silence is only meaningful as a phase of a phased schedule")
		}
	default:
		return field.Errorf(path+".process", "unknown arrival process %q (want deterministic, poisson, bursty, trace or phased)", a.Process)
	}
	if a.Cycle && a.Process != "phased" {
		return field.Errorf(path+".cycle", "only meaningful with a phased process")
	}
	if len(a.Phases) > 0 && a.Process != "phased" {
		return field.Errorf(path+".phases", "only meaningful with a phased process")
	}
	if a.Delay < 0 {
		return field.Errorf(path+".delay", "negative delay %v", a.Delay.Std())
	}
	return nil
}

func (sc *Scenario) validateReloads() error {
	for i, rl := range sc.Reloads {
		p := fmt.Sprintf("reloads[%d]", i)
		if rl.At < 0 {
			return field.Errorf(p+".at", "negative instant %v", rl.At.Std())
		}
		if rl.SLO == nil && rl.HedgeBudget == nil && rl.AdmissionDepth == nil {
			return field.Errorf(p, "reload sets no knob (want slo, hedge_budget or admission_depth)")
		}
		if rl.SLO != nil && *rl.SLO < 0 {
			return field.Errorf(p+".slo", "negative deadline %v", rl.SLO.Std())
		}
		if rl.HedgeBudget != nil {
			if !finiteNonNegative(*rl.HedgeBudget) {
				return field.Errorf(p+".hedge_budget", "budget %g (need finite >= 0)", *rl.HedgeBudget)
			}
			if sc.Hedge == nil {
				return field.Errorf(p+".hedge_budget", "needs a hedge section (hedging cannot be turned on mid-run)")
			}
		}
		if rl.AdmissionDepth != nil {
			if *rl.AdmissionDepth < 1 {
				return field.Errorf(p+".admission_depth", "depth %d (need >= 1)", *rl.AdmissionDepth)
			}
			if sc.Admission == nil {
				return field.Errorf(p+".admission_depth", "needs an admission section (admission cannot be turned on mid-run, only resized)")
			}
		}
	}
	return nil
}

// jsonPaths translates the Go field paths pipeline.Config.Validate
// reports into scenario JSON paths, with every index written "[]".
// Config fields whose only reachable errors are conflicts between two
// parts of one scenario section map to the section: Groups and Stages
// (fleet shape), Arrivals (against tenants), AdmissionDepth (a paced
// source; its range is a format rule above) and Hedge.
var jsonPaths = map[string]string{
	"Groups":                      "fleet",
	"Groups[].Batch":              "fleet.groups[].batch",
	"Groups[].Devices":            "fleet.groups[].devices",
	"Groups[].Weight":             "fleet.groups[].weight",
	"Stages":                      "fleet",
	"Stages[].Group.Batch":        "fleet.stages[].batch",
	"Stages[].Group.Devices":      "fleet.stages[].devices",
	"Stages[].Group.Weight":       "fleet.stages[].weight",
	"Stages[].Queue":              "fleet.stages[].queue",
	"Stages[].Replicas":           "fleet.stages[].replicas",
	"Cuts":                        "fleet.cuts",
	"QueueDepth":                  "fleet.queue_depth",
	"Images":                      "images",
	"Dataset.Classes":             "dataset.classes",
	"Dataset.Images":              "dataset.images",
	"Dataset.Subsets":             "dataset.subsets",
	"Dataset.Size":                "dataset.size",
	"SLO":                         "slo",
	"Arrivals":                    "traffic",
	"Tenants.SharedDepth":         "traffic.tenants.shared_depth",
	"Tenants.Lanes[].ID":          "traffic.tenants.tenants[].id",
	"Tenants.Lanes[].Weight":      "traffic.tenants.tenants[].weight",
	"Tenants.Lanes[].Deadline":    "traffic.tenants.tenants[].slo",
	"Tenants.Lanes[].Depth":       "traffic.tenants.tenants[].queue_depth",
	"Tenants.Lanes[].MaxInFlight": "traffic.tenants.tenants[].max_in_flight",
	"Tenants.Lanes[].RatePerSec":  "traffic.tenants.tenants[].rate_per_sec",
	"Tenants.Lanes[].Burst":       "traffic.tenants.tenants[].burst",
	"AdmissionDepth":              "admission",
	"AdmissionMinDepth":           "admission.min_depth",
	"Hedge":                       "hedge",
	"Hedge.Trigger":               "hedge.trigger",
	"Hedge.Quantile":              "hedge.quantile",
	"Hedge.MinSamples":            "hedge.min_samples",
	"Hedge.Budget":                "hedge.budget",
	"Hedge.DynamicBudget":         "hedge.dynamic",
	"BatchMaxWait":                "batching.max_wait",
	"Faults.Events[].Device":      "faults.events[].device",
	"Faults.Events[].At":          "faults.events[].at",
	"Faults.Events[].Duration":    "faults.events[].duration",
	"Faults.Events[].Factor":      "faults.events[].factor",
	"Faults.Events[].Count":       "faults.events[].count",
	"Faults.Processes[].Devices":  "faults.processes[].devices",
	"Faults.Processes[].Kinds":    "faults.processes[].kinds",
	"Faults.Processes[].Rate":     "faults.processes[].rate",
	"Faults.Processes[].Start":    "faults.processes[].start",
	"Faults.Processes[].End":      "faults.processes[].end",
	"Faults.Processes[].Factor":   "faults.processes[].factor",
	"Faults.Processes[].Window":   "faults.processes[].window",
	"Recovery.MaxAttempts":        "recovery.max_attempts",
}

var indexRE = regexp.MustCompile(`\[\d+\]`)

// jsonPath translates one Go field path through jsonPaths, carrying
// its indices over in order. A path the table does not know (a rule no
// scenario can reach) is returned unchanged.
func jsonPath(goPath string) string {
	p, ok := jsonPaths[indexRE.ReplaceAllString(goPath, "[]")]
	if !ok {
		return goPath
	}
	for _, idx := range indexRE.FindAllString(goPath, -1) {
		p = strings.Replace(p, "[]", idx, 1)
	}
	return p
}
