package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// minimal is the smallest valid scenario; the table tests below
// mutate one section at a time.
const minimal = `{
	"name": "t",
	"images": 16,
	"fleet": {"groups": [{"kind": "cpu"}]}
}`

// TestValidationRules holds one case per validation rule: every
// malformed scenario must fail with an error naming the offending
// field path. Parse rejects all of them except named cuts, which only
// Compile can resolve against the workload network.
func TestValidationRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
		late bool   // rejected by Compile, not Parse
	}{
		{
			name: "unknown device kind",
			src:  `{"name":"t","fleet":{"groups":[{"kind":"tpu"}]}}`,
			want: `fleet.groups[0].kind: unknown device kind "tpu"`,
		},
		{
			name: "negative arrival rate",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"poisson","rate":-5}}}`,
			want: "traffic.arrivals.rate: arrival rate -5",
		},
		{
			name: "conflicting tenant and arrival sections",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{
					"arrivals":{"process":"poisson","rate":10},
					"tenants":{"tenants":[{"id":"a","arrivals":{"process":"poisson","rate":5}}]}}}`,
			want: "traffic: arrivals and tenants are mutually exclusive",
		},
		{
			name: "invalid cut name",
			src: `{"name":"t","network":"googlenet",
				"fleet":{"stages":[{"kind":"vpu","devices":2},{"kind":"gpu","batch":4}],
				"cuts":["no_such_layer"]}}`,
			want: `fleet.cuts[0]: no layer "no_such_layer"`,
			late: true,
		},
		{
			name: "cut inside an inception module",
			src: `{"name":"t","network":"googlenet",
				"fleet":{"stages":[{"kind":"vpu","devices":2},{"kind":"gpu","batch":4}],
				"cuts":["inception_3a/1x1"]}}`,
			want: `fleet.cuts[0]: no legal cut after layer "inception_3a/1x1"`,
			late: true,
		},
		{
			name: "hot-reload of a non-reloadable field",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"reloads":[{"at":1000,"routing":"round-robin"}]}`,
			want: "reloads[0].routing: unknown field",
		},
		{
			name: "unknown top-level field",
			src:  `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},"floot":{}}`,
			want: "floot: unknown field",
		},
		{
			name: "reload sets no knob",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"reloads":[{"at":1000}]}`,
			want: "reloads[0]: reload sets no knob",
		},
		{
			name: "admission without arrivals",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"admission":{"depth":8}}`,
			want: "admission: needs a paced source",
		},
		{
			name: "hedge budget reload without a hedge section",
			src: `{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":4}]},
				"reloads":[{"at":1000,"hedge_budget":0.1}]}`,
			want: "reloads[0].hedge_budget: needs a hedge section",
		},
		{
			name: "admission depth reload without an admission section",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"reloads":[{"at":1000,"admission_depth":4}]}`,
			want: "reloads[0].admission_depth: needs an admission section",
		},
		{
			name: "bursty on-phase too short for the rate",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"bursty","rate":2,"on":100,"off":200}}}`,
			want: "traffic.arrivals.on: on-phase 100ms holds no arrivals",
		},
		{
			name: "nested phased schedule",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"phased","phases":[
					{"process":"phased","duration":1000}]}}}`,
			want: "traffic.arrivals.phases[0].process: phased schedules cannot nest",
		},
		{
			name: "every phase silent",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"phased","phases":[
					{"process":"silence","duration":1000}]}}}`,
			want: "traffic.arrivals.phases: every phase silent",
		},
		{
			name: "missing scenario name",
			src:  `{"fleet":{"groups":[{"kind":"cpu"}]}}`,
			want: "name: required",
		},
		{
			name: "groups and stages together",
			src: `{"name":"t","fleet":{
				"groups":[{"kind":"cpu"}],
				"stages":[{"kind":"cpu"},{"kind":"gpu"}],"cuts":[10]}}`,
			want: "fleet: groups and stages are mutually exclusive",
		},
		{
			name: "cut count mismatch",
			src: `{"name":"t","fleet":{
				"stages":[{"kind":"vpu","devices":2},{"kind":"gpu"}],"cuts":[]}}`,
			want: "fleet.cuts: 0 cuts for 2 stages",
		},
		{
			name: "unknown routing",
			src:  `{"name":"t","fleet":{"groups":[{"kind":"cpu"}],"routing":"lifo"}}`,
			want: `fleet.routing: unknown routing "lifo"`,
		},
		{
			name: "unknown tenant scheduler",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"tenants":{"scheduler":"lottery",
					"tenants":[{"id":"a","arrivals":{"process":"poisson","rate":5}}]}}}`,
			want: `traffic.tenants.scheduler: unknown scheduler "lottery"`,
		},
		{
			name: "tenant without arrivals",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"tenants":{"tenants":[{"id":"a"}]}}}`,
			want: "traffic.tenants.tenants[0].arrivals: required",
		},
		{
			name: "wrong field type",
			src:  `{"name":"t","images":"many","fleet":{"groups":[{"kind":"cpu"}]}}`,
			want: "cannot decode",
		},
		{
			name: "bad duration string",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"slo":"fortnight"}`,
			want: `invalid duration "fortnight"`,
		},
		{
			name: "hedge without trigger or quantile",
			src: `{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":4}]},
				"hedge":{"budget":0.1}}`,
			want: "hedge: needs a trigger or a quantile",
		},
		{
			name: "dynamic hedge without budget",
			src: `{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":4}]},
				"hedge":{"quantile":0.95,"dynamic":true}}`,
			want: "hedge.dynamic: needs a positive budget",
		},
		{
			name: "slowdown event without factor",
			src: `{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":2}]},
				"faults":{"events":[{"device":"ncs0","kind":"slowdown","at":1000}]}}`,
			want: "faults.events[0].factor: slowdown factor 0",
		},
		{
			name: "hang without recovery",
			src: `{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":2}]},
				"faults":{"events":[{"device":"ncs0","kind":"hang","at":1000}]}}`,
			want: "recovery: fault plan can hang or kill a device",
		},
		{
			name: "unknown fault kind",
			src: `{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":2}]},
				"faults":{"events":[{"device":"ncs0","kind":"meltdown","at":1000}]}}`,
			want: `faults.events[0].kind: unknown fault kind "meltdown"`,
		},
		{
			name: "empty fleet",
			src:  `{"name":"t","fleet":{}}`,
			want: "fleet: needs groups or stages",
		},
		{
			name: "duplicate tenant IDs",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"tenants":{"tenants":[
					{"id":"a","arrivals":{"process":"poisson","rate":5}},
					{"id":"a","arrivals":{"process":"poisson","rate":5}}]}}}`,
			want: `traffic.tenants.tenants[1].id: duplicate tenant "a"`,
		},
		{
			name: "negative tenant queue depth",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"tenants":{"tenants":[
					{"id":"a","queue_depth":-1,"arrivals":{"process":"poisson","rate":5}}]}}}`,
			want: "traffic.tenants.tenants[0].queue_depth: negative depth -1",
		},
		{
			name: "negative tenant slo",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"tenants":{"tenants":[
					{"id":"a","slo":-5,"arrivals":{"process":"poisson","rate":5}}]}}}`,
			want: "traffic.tenants.tenants[0].slo: negative deadline -5ms",
		},
		{
			name: "hedge on a single CPU group",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"hedge":{"trigger":100}}`,
			want: "hedge: hedging a single group needs a multi-stick VPU group",
		},
		{
			name: "hedge over stages",
			src: `{"name":"t","fleet":{
				"stages":[{"kind":"vpu","devices":2},{"kind":"gpu","batch":4}],"cuts":[38]},
				"hedge":{"trigger":100}}`,
			want: "hedge: hedging duplicates whole inferences across groups",
		},
		{
			name: "hedge with work-stealing routing",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"},{"kind":"vpu","devices":2}],
				"routing":"work-stealing"},
				"hedge":{"trigger":100}}`,
			want: "hedge: hedging needs per-group feeds",
		},
		{
			name: "admission floor above depth",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"poisson","rate":10}},
				"admission":{"depth":4,"shrink":true,"min_depth":8}}`,
			want: "admission.min_depth: floor 8 exceeds depth 4",
		},
		{
			name: "phases on a non-phased phase",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"phased","phases":[
					{"process":"poisson","rate":5,"duration":1000,
					 "phases":[{"process":"poisson","rate":1,"duration":10}]}]}}}`,
			want: "traffic.arrivals.phases[0].phases: only meaningful with a phased process",
		},
		{
			name: "phase-only key on a top-level process",
			src: `{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
				"traffic":{"arrivals":{"process":"poisson","rate":5,"duration":1000}}}`,
			want: "traffic.arrivals.duration: unknown field",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse([]byte(tc.src), "test.json")
			if tc.late {
				if err != nil {
					t.Fatalf("Parse: %v (want the error from Compile)", err)
				}
				_, err = sc.Compile()
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "test.json") {
				t.Fatalf("error %q does not name the file", err)
			}
		})
	}
}

// TestJSONPathsResolve walks every jsonPaths key through
// pipeline.Config by reflection, so a renamed Config field cannot
// leave a stale key behind (its errors would then leak the Go path
// into scenario messages).
func TestJSONPathsResolve(t *testing.T) {
	for goPath := range jsonPaths {
		typ := reflect.TypeOf(pipeline.Config{})
		for _, seg := range strings.Split(goPath, ".") {
			name, indexed := strings.CutSuffix(seg, "[]")
			if typ.Kind() != reflect.Struct {
				t.Errorf("%s: %v has no fields", goPath, typ)
				break
			}
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Errorf("%s: %v has no field %s", goPath, typ, name)
				break
			}
			typ = f.Type
			if indexed {
				if typ.Kind() != reflect.Slice {
					t.Errorf("%s: %s is a %v, not a slice", goPath, name, typ)
					break
				}
				typ = typ.Elem()
			}
		}
	}
}

// TestDurations checks the two accepted duration spellings: JSON
// numbers are milliseconds, JSON strings are Go duration syntax
// (including exact nanosecond counts).
func TestDurations(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name":"t",
		"fleet":{"groups":[{"kind":"cpu"}]},
		"slo":250,
		"batching":{"max_wait":"6500000ns"},
		"reloads":[{"at":"1.5s","slo":100}]
	}`), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.SLO.Std(); got != 250*time.Millisecond {
		t.Errorf("slo = %v, want 250ms", got)
	}
	if got := sc.Batching.MaxWait.Std(); got != 6500000*time.Nanosecond {
		t.Errorf("max_wait = %v, want 6.5ms", got)
	}
	if got := sc.Reloads[0].At.Std(); got != 1500*time.Millisecond {
		t.Errorf("reload at = %v, want 1.5s", got)
	}
}

// TestCutResolution checks that named cuts resolve to the documented
// whole-network indices and numeric cuts pass through.
func TestCutResolution(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name":"t","network":"googlenet",
		"fleet":{"stages":[{"kind":"vpu","devices":2},{"kind":"gpu","batch":4}],
			"cuts":["inception_4e/output"]}
	}`), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Cuts) != 1 || cfg.Cuts[0] != 109 {
		t.Errorf("cuts = %v, want [109] (after inception_4e/output)", cfg.Cuts)
	}

	sc2, err := Parse([]byte(`{
		"name":"t","network":"googlenet",
		"fleet":{"stages":[{"kind":"vpu","devices":2},{"kind":"gpu","batch":4}],
			"cuts":[38]}
	}`), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := sc2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg2.Cuts) != 1 || cfg2.Cuts[0] != 38 {
		t.Errorf("cuts = %v, want [38]", cfg2.Cuts)
	}
}

// TestRunSmoke runs the minimal scenario twice and demands identical
// renderings — the determinism contract in miniature.
func TestRunSmoke(t *testing.T) {
	src := `{
		"name": "smoke",
		"images": 32,
		"dataset": {"images": 32, "subsets": 1},
		"fleet": {"groups": [{"kind": "cpu", "batch": 4}]}
	}`
	sc, err := Parse([]byte(src), "smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Report.Images != 32 {
		t.Errorf("completed %d images, want 32", r1.Report.Images)
	}
	sc2, err := Parse([]byte(src), "smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Errorf("two runs of the same scenario rendered differently")
	}
	p := r1.Point()
	if p.Name != "smoke" || p.Images != 32 || p.ThroughputIPS <= 0 {
		t.Errorf("point = %+v", p)
	}
}
