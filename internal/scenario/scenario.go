// Package scenario is the declarative scenario engine: a JSON file
// format describing everything a serving experiment needs — fleet
// topology (device groups or pipeline stages with cuts), traffic
// (open-loop arrival processes or a multi-tenant mix), the fault
// plan, the SLO and the serving knobs (admission, hedging, batch
// assembly), plus scheduled mid-run knob reloads — and the machinery
// to load, validate, compile and run such a file as a
// pipeline.Session.
//
// A scenario file is a complete, committed, executable description of
// a serving day: the corpus under scenarios/ doubles as the
// integration regression suite (each file is golden-pinned at quick
// scale), and `ncsw-bench -scenario <file|dir>` runs one file or
// sweeps a directory. Loading is strict — unknown fields, malformed
// values and semantic violations are all errors carrying the file
// name and the JSON field path (e.g. "fleet.groups[0].kind") — and
// running is deterministic: the same file produces bit-identical
// reports on every run.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Duration is a JSON-friendly time.Duration: a JSON number is read as
// milliseconds (the natural unit of serving latency), a JSON string
// as Go duration syntax ("250ms", "1.5s", "6500000ns").
type Duration time.Duration

// Std converts to the standard library representation.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// UnmarshalJSON accepts a millisecond number or a duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if len(s) > 0 && s[0] == '"' {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		v, err := time.ParseDuration(str)
		if err != nil {
			return fmt.Errorf("invalid duration %q (want Go syntax, e.g. \"250ms\")", str)
		}
		*d = Duration(v)
		return nil
	}
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return fmt.Errorf("invalid duration %s (want milliseconds or a duration string)", s)
	}
	*d = Duration(ms * float64(time.Millisecond))
	return nil
}

// MarshalJSON renders the duration in Go syntax.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Cut names one pipeline cut: either a whole-network layer index
// (JSON number) or the name of the last layer of the stage before the
// cut (JSON string) — resolved against the workload network at
// compile time.
type Cut struct {
	// Name is the layer the cut falls after ("" for index cuts).
	Name string
	// Index is the whole-network cut index (valid when Name is "").
	Index int
}

// UnmarshalJSON accepts a layer name or a cut index.
func (c *Cut) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if len(s) > 0 && s[0] == '"' {
		return json.Unmarshal(b, &c.Name)
	}
	if err := json.Unmarshal(b, &c.Index); err != nil {
		return fmt.Errorf("invalid cut %s (want a layer name or a cut index)", s)
	}
	return nil
}

// MarshalJSON renders the cut as it was declared.
func (c Cut) MarshalJSON() ([]byte, error) {
	if c.Name != "" {
		return json.Marshal(c.Name)
	}
	return json.Marshal(c.Index)
}

// GroupSpec declares one device group of the fleet.
type GroupSpec struct {
	// Kind is the device family: "cpu", "gpu" or "vpu".
	Kind string `json:"kind"`
	// Batch is the CPU/GPU batch size (default 8).
	Batch int `json:"batch,omitempty"`
	// Devices is the VPU stick count (default 1).
	Devices int `json:"devices,omitempty"`
	// Weight is the static/weighted routing weight (0 = unset).
	Weight float64 `json:"weight,omitempty"`
	// SeedLabel pins the group's device jitter streams (the batch
	// engine, or every stick of a VPU group) to a derivation label
	// (see pipeline.Group.SeedLabel).
	SeedLabel string `json:"seed_label,omitempty"`
}

// StageSpec declares one stage of a model-parallel pipeline fleet.
type StageSpec struct {
	GroupSpec
	// Replicas widens the stage to a pool of identical groups (0 or
	// 1 = a single group).
	Replicas int `json:"replicas,omitempty"`
	// Queue bounds the in-flight window to the next stage (0 =
	// session queue depth).
	Queue int `json:"queue,omitempty"`
}

// FleetSpec declares the device topology: flat groups under a routing
// policy, or pipeline stages joined at cuts.
type FleetSpec struct {
	// Groups are the device groups of a flat (routed) fleet.
	Groups []GroupSpec `json:"groups,omitempty"`
	// Stages are the stages of a model-parallel pipeline fleet
	// (mutually exclusive with Groups).
	Stages []StageSpec `json:"stages,omitempty"`
	// Cuts are the len(Stages)-1 network boundaries between stages,
	// each a layer name or a cut index.
	Cuts []Cut `json:"cuts,omitempty"`
	// Routing selects the device-group scheduler of a flat fleet:
	// "throughput-weighted" (default), "static-split", "round-robin",
	// "work-stealing" or "latency-ewma".
	Routing string `json:"routing,omitempty"`
	// QueueDepth bounds the per-group feed queues (0 = default 2).
	QueueDepth int `json:"queue_depth,omitempty"`
}

// ArrivalSpec declares an open-loop arrival process.
type ArrivalSpec struct {
	// Process selects the arrival law: "deterministic", "poisson",
	// "bursty", "trace" or "phased" (plus "silence" for a quiet phase
	// inside a phased schedule).
	Process string `json:"process"`
	// Rate is the mean arrival rate in items/sec (deterministic,
	// poisson, bursty).
	Rate float64 `json:"rate,omitempty"`
	// On and Off are the bursty duty-cycle phases.
	On  Duration `json:"on,omitempty"`
	Off Duration `json:"off,omitempty"`
	// Instants is the explicit trace of arrival times.
	Instants []Duration `json:"instants,omitempty"`
	// Phases is the piecewise schedule of a phased process: each
	// phase runs its own law for its duration, in order.
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Cycle repeats a phased schedule forever (diurnal load curves).
	Cycle bool `json:"cycle,omitempty"`
	// Delay holds the whole process back by a warmup offset.
	Delay Duration `json:"delay,omitempty"`
}

// PhaseSpec is one phase of a phased arrival schedule: an arrival law
// plus how long it holds. Process "silence" declares a quiet phase.
type PhaseSpec struct {
	ArrivalSpec
	// Duration is how long the phase lasts (required > 0).
	Duration Duration `json:"duration"`
}

// TenantSpec declares one traffic class of a multi-tenant scenario.
type TenantSpec struct {
	// ID names the tenant (unique, non-empty).
	ID string `json:"id"`
	// Weight is the fair-share weight (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Priority is the strict-priority class (lower first).
	Priority int `json:"priority,omitempty"`
	// SLO is the tenant's own latency target (0 = session SLO).
	SLO Duration `json:"slo,omitempty"`
	// Arrivals is the tenant's arrival process (required).
	Arrivals *ArrivalSpec `json:"arrivals"`
	// QueueDepth bounds the tenant's own queue (0 = unbounded).
	QueueDepth int `json:"queue_depth,omitempty"`
	// Overload is the tenant queue's full-queue policy:
	// "shed-newest" (default), "shed-oldest" or "block".
	Overload string `json:"overload,omitempty"`
	// MaxInFlight caps admitted-but-uncompleted items (0 = none).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// RatePerSec and Burst are the token-bucket rate quota.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
}

// TenantsSpec declares the multi-tenant mix and its scheduler.
type TenantsSpec struct {
	// Scheduler is the admission-edge policy: "fifo" (default),
	// "weighted-fair" (alias "fair") or "priority".
	Scheduler string `json:"scheduler,omitempty"`
	// SharedDepth bounds the FIFO shared queue (fair schedulers
	// ignore it).
	SharedDepth int `json:"shared_depth,omitempty"`
	// SharedOverload is the FIFO shared queue's policy.
	SharedOverload string `json:"shared_overload,omitempty"`
	// Tenants is the traffic-class registry, in registration order.
	Tenants []TenantSpec `json:"tenants"`
}

// TrafficSpec declares what drives the run: a single open-loop
// arrival process, or a multi-tenant mix (mutually exclusive).
type TrafficSpec struct {
	// Arrivals is the single-tenant arrival process.
	Arrivals *ArrivalSpec `json:"arrivals,omitempty"`
	// ArrivalLabel pins the arrival stream's seed derivation label
	// (see pipeline.Config.ArrivalLabel).
	ArrivalLabel string `json:"arrival_label,omitempty"`
	// Tenants is the multi-tenant mix.
	Tenants *TenantsSpec `json:"tenants,omitempty"`
}

// AdmissionSpec bounds the session ingress.
type AdmissionSpec struct {
	// Depth is the admission queue bound (required >= 1).
	Depth int `json:"depth"`
	// Policy is the overload behavior: "shed-newest" (default),
	// "shed-oldest" or "block".
	Policy string `json:"policy,omitempty"`
	// Shrink ties the effective depth to device-pool health.
	Shrink bool `json:"shrink,omitempty"`
	// MinDepth floors the health-shrunk depth (0 = 1).
	MinDepth int `json:"min_depth,omitempty"`
}

// HedgeSpec arms speculative hedged requests.
type HedgeSpec struct {
	// Trigger is the fixed in-flight age that launches a duplicate.
	Trigger Duration `json:"trigger,omitempty"`
	// Quantile derives the trigger from the live completion-age
	// distribution (in (0,1); 0 = off).
	Quantile float64 `json:"quantile,omitempty"`
	// MinSamples is the quantile warmup (0 = default).
	MinSamples int `json:"min_samples,omitempty"`
	// Budget caps hedge volume as a fraction of dispatches (0 =
	// unlimited).
	Budget float64 `json:"budget,omitempty"`
	// Dynamic scales Budget by observed fleet headroom.
	Dynamic bool `json:"dynamic,omitempty"`
}

// BatchingSpec tunes batch assembly on CPU/GPU groups.
type BatchingSpec struct {
	// MaxWait bounds partial-batch assembly (0 = fill to size).
	MaxWait Duration `json:"max_wait,omitempty"`
	// Adaptive sizes batches from the observed backlog.
	Adaptive bool `json:"adaptive,omitempty"`
}

// FaultEventSpec is one scripted fault.
type FaultEventSpec struct {
	// Device names the target ("ncs0".."ncsN", "cpu", "gpu", ...).
	Device string `json:"device"`
	// Kind is the fault class: "hang", "link-drop", "transient",
	// "slowdown" or "batch-oom".
	Kind string `json:"kind"`
	// At is the virtual instant the fault fires.
	At Duration `json:"at"`
	// Duration is the slowdown window (slowdown only).
	Duration Duration `json:"duration,omitempty"`
	// Factor is the slowdown service-time multiplier (slowdown only).
	Factor float64 `json:"factor,omitempty"`
	// Count is how many inferences/batches fail (transient,
	// batch-oom; default 1).
	Count int `json:"count,omitempty"`
}

// FaultProcessSpec is a seeded-stochastic fault generator.
type FaultProcessSpec struct {
	// Devices are the candidate targets.
	Devices []string `json:"devices"`
	// Kinds are the fault classes drawn from.
	Kinds []string `json:"kinds"`
	// Rate is the mean fault rate (faults/sec over the device set).
	Rate float64 `json:"rate"`
	// Start and End bound the active window (End > Start).
	Start Duration `json:"start,omitempty"`
	End   Duration `json:"end"`
	// Factor and Window parameterize drawn slowdowns.
	Factor float64  `json:"factor,omitempty"`
	Window Duration `json:"window,omitempty"`
}

// FaultsSpec is the scenario's deterministic fault plan.
type FaultsSpec struct {
	// Events are the scripted faults.
	Events []FaultEventSpec `json:"events,omitempty"`
	// Processes are the seeded-stochastic generators.
	Processes []FaultProcessSpec `json:"processes,omitempty"`
}

// RecoverySpec configures health monitoring and self-healing.
type RecoverySpec struct {
	// Timeout is the completion heartbeat (required > 0).
	Timeout Duration `json:"timeout"`
	// Recover re-opens unhealthy devices (default true; false is
	// fail-stop).
	Recover *bool `json:"recover,omitempty"`
	// MaxAttempts bounds deliveries per item (0 = default 3).
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// ReloadSpec schedules a mid-run operator intervention: at virtual
// instant At, every knob the spec sets is hot-reloaded into the
// running session. Only the reloadable knobs appear here — SLO, hedge
// budget, admission depth; anything else in a reload object is an
// unknown field.
type ReloadSpec struct {
	// At is the virtual instant the reload applies.
	At Duration `json:"at"`
	// SLO replaces the serving deadline from At on.
	SLO *Duration `json:"slo,omitempty"`
	// HedgeBudget replaces the hedge-volume budget from At on.
	HedgeBudget *float64 `json:"hedge_budget,omitempty"`
	// AdmissionDepth re-bounds the ingress from At on.
	AdmissionDepth *int `json:"admission_depth,omitempty"`
}

// DatasetSpec overrides the synthetic dataset parameters (zero
// fields keep the imagenet defaults).
type DatasetSpec struct {
	// Images, Classes, Subsets and Size override imagenet.Config.
	Images  int `json:"images,omitempty"`
	Classes int `json:"classes,omitempty"`
	Subsets int `json:"subsets,omitempty"`
	Size    int `json:"size,omitempty"`
	// Seed overrides the dataset seed (0 = imagenet default).
	Seed uint64 `json:"seed,omitempty"`
}

// Scenario is one declarative serving experiment: everything a
// pipeline session can express, as data.
type Scenario struct {
	// Name identifies the scenario (required; reports and goldens
	// key on it).
	Name string `json:"name"`
	// Description says what the scenario models.
	Description string `json:"description,omitempty"`
	// Seed drives every stochastic component (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// NetSeed seeds the network weights (0 = the conventional 42).
	NetSeed uint64 `json:"net_seed,omitempty"`
	// Images is how many images the run classifies (0 = whole
	// dataset).
	Images int `json:"images,omitempty"`
	// Network selects the workload: "auto" (default), "googlenet" or
	// "micro".
	Network string `json:"network,omitempty"`
	// Dataset overrides the synthetic dataset parameters.
	Dataset *DatasetSpec `json:"dataset,omitempty"`
	// Fleet is the device topology (required).
	Fleet FleetSpec `json:"fleet"`
	// Traffic drives the run open-loop (omit for a closed-loop
	// drain-the-dataset throughput run).
	Traffic *TrafficSpec `json:"traffic,omitempty"`
	// SLO is the session serving deadline (0 = no deadline).
	SLO Duration `json:"slo,omitempty"`
	// Admission bounds the ingress.
	Admission *AdmissionSpec `json:"admission,omitempty"`
	// Hedge arms speculative duplicates.
	Hedge *HedgeSpec `json:"hedge,omitempty"`
	// Batching tunes CPU/GPU batch assembly.
	Batching *BatchingSpec `json:"batching,omitempty"`
	// Faults is the fault plan.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Recovery configures self-healing (defaulted when the fault
	// plan needs it).
	Recovery *RecoverySpec `json:"recovery,omitempty"`
	// Reloads are the scheduled mid-run knob swaps.
	Reloads []ReloadSpec `json:"reloads,omitempty"`

	// File is the path the scenario was loaded from ("" when parsed
	// from memory); error messages and reports carry its base name.
	File string `json:"-"`

	// src is the label Parse was given (the file name); later errors
	// (Compile, Run) carry it when File is unset.
	src string
}

// field is one node of the strict-parsing schema: the set of known
// JSON keys at that nesting level. A nil child is a scalar (or an
// array of scalars); a non-nil child applies to an object value or to
// every element of an array value.
type field map[string]field

func arrivalFields(top bool) field {
	f := field{
		"process":  nil,
		"rate":     nil,
		"on":       nil,
		"off":      nil,
		"instants": nil,
		"delay":    nil,
	}
	if top {
		f["cycle"] = nil
		ph := arrivalFields(false)
		ph["duration"] = nil
		f["phases"] = ph
	}
	return f
}

func groupFields(stage bool) field {
	f := field{
		"kind":       nil,
		"batch":      nil,
		"devices":    nil,
		"weight":     nil,
		"seed_label": nil,
	}
	if stage {
		f["replicas"] = nil
		f["queue"] = nil
	}
	return f
}

// rootSchema is the full scenario schema, used to reject unknown
// fields with an exact path before typed decoding.
var rootSchema = field{
	"name":        nil,
	"description": nil,
	"seed":        nil,
	"net_seed":    nil,
	"images":      nil,
	"network":     nil,
	"dataset": field{
		"images": nil, "classes": nil, "subsets": nil, "size": nil, "seed": nil,
	},
	"fleet": field{
		"groups":      groupFields(false),
		"stages":      groupFields(true),
		"cuts":        nil,
		"routing":     nil,
		"queue_depth": nil,
	},
	"traffic": field{
		"arrivals":      arrivalFields(true),
		"arrival_label": nil,
		"tenants": field{
			"scheduler":       nil,
			"shared_depth":    nil,
			"shared_overload": nil,
			"tenants": field{
				"id":            nil,
				"weight":        nil,
				"priority":      nil,
				"slo":           nil,
				"arrivals":      arrivalFields(true),
				"queue_depth":   nil,
				"overload":      nil,
				"max_in_flight": nil,
				"rate_per_sec":  nil,
				"burst":         nil,
			},
		},
	},
	"slo": nil,
	"admission": field{
		"depth": nil, "policy": nil, "shrink": nil, "min_depth": nil,
	},
	"hedge": field{
		"trigger": nil, "quantile": nil, "min_samples": nil, "budget": nil, "dynamic": nil,
	},
	"batching": field{
		"max_wait": nil, "adaptive": nil,
	},
	"faults": field{
		"events": field{
			"device": nil, "kind": nil, "at": nil, "duration": nil, "factor": nil, "count": nil,
		},
		"processes": field{
			"devices": nil, "kinds": nil, "rate": nil, "start": nil, "end": nil, "factor": nil, "window": nil,
		},
	},
	"recovery": field{
		"timeout": nil, "recover": nil, "max_attempts": nil,
	},
	"reloads": field{
		"at": nil, "slo": nil, "hedge_budget": nil, "admission_depth": nil,
	},
}

// checkFields walks the generically-decoded document against the
// schema and rejects the first unknown key, carrying its full path.
// Keys are visited in sorted order so the error is deterministic.
func checkFields(path string, v any, sc field) error {
	switch val := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(val))
		for k := range val {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child, ok := sc[k]
			p := k
			if path != "" {
				p = path + "." + k
			}
			if !ok {
				return fmt.Errorf("%s: unknown field", p)
			}
			if child != nil {
				if err := checkFields(p, val[k], child); err != nil {
					return err
				}
			}
		}
	case []any:
		for i, e := range val {
			if err := checkFields(fmt.Sprintf("%s[%d]", path, i), e, sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// errLabel returns the name a scenario's errors carry: the file base
// name when loaded from disk, the Parse label otherwise, the
// scenario's own name as a last resort.
func (sc *Scenario) errLabel() string {
	if sc.File != "" {
		return filepath.Base(sc.File)
	}
	if sc.src != "" {
		return sc.src
	}
	return sc.Name
}

// Parse decodes and validates one scenario document. name labels
// errors (use the file name); every error it returns carries that
// label and, where one exists, the JSON field path of the offending
// value.
func Parse(data []byte, name string) (*Scenario, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: %s", name, fmt.Sprintf(format, args...))
	}
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fail("%v", err)
	}
	obj, ok := raw.(map[string]any)
	if !ok {
		return nil, fail("top level must be a JSON object")
	}
	if err := checkFields("", obj, rootSchema); err != nil {
		return nil, fail("%v", err)
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		if ute, isType := err.(*json.UnmarshalTypeError); isType {
			return nil, fail("%s: cannot decode %s (want %s)", ute.Field, ute.Value, ute.Type)
		}
		return nil, fail("%v", err)
	}
	sc.src = name
	if err := sc.Validate(); err != nil {
		return nil, fail("%v", err)
	}
	return &sc, nil
}

// LoadFile loads and validates one scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", filepath.Base(path), err)
	}
	sc, err := Parse(data, filepath.Base(path))
	if err != nil {
		return nil, err
	}
	sc.File = path
	return sc, nil
}

// LoadDir loads every *.json file of a directory (non-recursive), in
// file-name order — the corpus sweep.
func LoadDir(dir string) ([]*Scenario, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	var scs []*Scenario
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		sc, err := LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("scenario: no *.json scenarios in %s", dir)
	}
	return scs, nil
}

// LoadPath loads a scenario file, or sweeps a scenario directory.
func LoadPath(path string) ([]*Scenario, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if info.IsDir() {
		return LoadDir(path)
	}
	sc, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return []*Scenario{sc}, nil
}
