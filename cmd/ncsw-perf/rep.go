package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// repResult is what a child process reports for one repetition. Times
// are as measured; RefS is the reference time around the repetition.
type repResult struct {
	RefS     float64            `json:"ref_s"`
	Host     map[string]float64 `json:"host"`
	Sim      map[string]float64 `json:"sim,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Digest   string             `json:"digest"`
	Failures []string           `json:"failures,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the repetition started. Alloc and GC are the
// TotalAlloc and NumGC deltas over the span, recorded on traced runs
// only.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the parent span, -1 for a root
	Session string `json:"session"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Alloc   uint64 `json:"alloc_bytes,omitempty"`
	GC      uint32 `json:"gc,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps a repetition's spans in memory.
type tracer struct {
	t0    time.Time
	mem   bool
	spans []span
}

func (t *tracer) begin(name, session string, parent int) int {
	s := span{Name: name, Parent: parent, Session: session}
	if t.mem {
		// Alloc and GC hold the start readings until end turns them
		// into deltas.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Alloc, s.GC = ms.TotalAlloc, ms.NumGC
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	if t.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Alloc, s.GC = ms.TotalAlloc-s.Alloc, ms.NumGC-s.GC
	}
}

// selfTimes returns each span's duration minus the part its children
// cover, in seconds.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// checkSpans reports the first malformed span: one that ends before it
// starts, lies outside its parent, names a parent that is not an
// earlier span, or has negative self time.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= i || s.Parent < -1 {
			return fmt.Errorf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) lies outside its parent %s", i, s.Name, p.Name)
			}
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %gs", i, s.Name, self[i])
		}
	}
	return nil
}

// setupLayers are the spans whose time is set-up: everything before
// Session.Run. wallLayers add the run and the report rendering; the
// forced GC of the heap sample and the parse probe are in neither.
var (
	setupLayers = []string{"scenario.compile", "nn.build", "graphfile.compile", "pipeline.build"}
	wallLayers  = append([]string{"pipeline.run", "pipeline.report"}, setupLayers...)
)

// rep is one repetition of a workload, run in this process.
type rep struct {
	o      options
	w      *workload
	traced bool
	tr     tracer
	res    repResult
	digest []byte // concatenated session renderings
	heap   uint64 // max post-GC HeapAlloc over sessions

	// Outside estimates of graph-file parsing: per session, the blob's
	// standalone parse cost times the parses the session performed.
	parses             int
	parseS, parseAlloc float64
	blobBytes          int

	// Sums of report counters over the sessions.
	arrivals, completed, shed, expired     int
	hedged, hedgeWins, hedgeWaste          int
	injected, retries, faultDrops, outages int
	minUptime                              float64
}

func (r *rep) fail(format string, args ...any) {
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

// runRep runs one repetition: every session of the workload, back to
// back, recording spans around each call into a layer. A traced
// repetition also builds each session's network and graph file itself,
// records allocation deltas, and probes the graph-file parse cost.
func runRep(w *workload, o options, traced bool) repResult {
	r := &rep{o: o, w: w, traced: traced, minUptime: 1}
	r.res.RefS = reference()
	r.tr.mem = traced
	r.res.Sim = map[string]float64{}
	r.res.Layers = map[string]float64{}
	sessions, err := w.load(o)
	if err != nil {
		r.fail("%v", err)
		return r.res
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.tr.t0 = time.Now()
	for _, s := range sessions {
		if err := r.session(s, len(sessions) == 1); err != nil {
			r.fail("%s: %v", s.name, err)
		}
	}
	runtime.ReadMemStats(&after)

	sum := sha256.Sum256(r.digest)
	r.res.Digest = hex.EncodeToString(sum[:])
	r.res.Host = r.hostMetrics(after.TotalAlloc - before.TotalAlloc)
	if traced {
		r.layerMetrics(sessions)
		r.res.Spans = r.tr.spans
	} else {
		r.res.Layers = nil
	}
	if !w.sim {
		r.res.Sim = nil
	}
	return r.res
}

// durations sums span durations by name (session "" = all sessions).
func (r *rep) durations(session string, names ...string) float64 {
	total := 0.0
	for _, s := range r.tr.spans {
		if session != "" && s.Session != session {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				total += s.seconds()
			}
		}
	}
	return total
}

func (r *rep) hostMetrics(alloc uint64) map[string]float64 {
	return map[string]float64{
		"setup_s":      r.durations("", setupLayers...),
		"run_s":        r.durations("", "pipeline.run"),
		"wall_s":       r.durations("", wallLayers...),
		"alloc_mb":     float64(alloc) / 1e6,
		"heap_live_mb": float64(r.heap) / 1e6,
	}
}

// session runs one session and folds its outputs into the repetition.
// single is true when the session is the workload's only one; its
// report then also supplies the simulated end-to-end metrics.
func (r *rep) session(s session, single bool) error {
	tr := &r.tr
	root := tr.begin("session", s.name, -1)
	cfg := s.cfg
	var sc *scenario.Scenario
	if s.data != nil {
		id := tr.begin("scenario.compile", s.name, root)
		var err error
		sc, err = scenario.Parse(s.data, s.file)
		if err == nil {
			if r.o.seed != 0 {
				sc.Seed = r.o.seed
			}
			if s.images > 0 {
				sc.Images = s.images
			}
			cfg, err = sc.Compile()
		}
		tr.end(id)
		if err != nil {
			return err
		}
	} else {
		if r.o.seed != 0 {
			cfg.Seed = r.o.seed
		}
		if s.images > 0 {
			cfg.Images = s.images
		}
	}

	var blob []byte
	if r.traced {
		var err error
		if blob, err = r.inject(&cfg, s.name, root); err != nil {
			return err
		}
	}

	id := tr.begin("pipeline.build", s.name, root)
	sess, err := pipeline.NewFromConfig(cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	if sc != nil {
		scheduleReloads(sess, sc)
	}

	id = tr.begin("pipeline.run", s.name, root)
	report, err := sess.Run()
	tr.end(id)
	if err != nil {
		return err
	}
	if errs := sess.ReloadErrs(); len(errs) > 0 {
		return errs[0]
	}

	// Live heap while the session and its report are still reachable;
	// the forced collections are outside every timed layer. The second
	// one frees what sync.Pool caches (nn's convolution buffers) kept
	// through the first, so the sample does not depend on when the
	// pools were last used.
	id = tr.begin("heap.sample", s.name, root)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.end(id)
	r.heap = max(r.heap, ms.HeapAlloc)

	id = tr.begin("pipeline.report", s.name, root)
	var text string
	if sc != nil {
		text = (&scenario.Result{Scenario: sc, Report: report}).String()
	} else {
		text = report.String()
	}
	tr.end(id)
	tr.end(root)

	requested := cfg.Images
	if requested == 0 {
		requested = sess.Dataset().Len()
	}
	runtime.KeepAlive(sess)
	r.digest = append(r.digest, text...)
	if got := report.Collector.Arrivals(); got != requested {
		r.fail("%s: conservation: %d images requested, completed+shed+expired+quota+failed = %d", s.name, requested, got)
	}
	if s.golden != "" && text != s.golden {
		r.fail("%s: report differs from scenarios/golden/%s.golden", s.name, s.name)
	}
	r.addReport(report, cfg, single)

	if blob != nil {
		r.probeParse(blob, sticks(cfg)+report.Recovered, s.name)
	}
	return nil
}

// scheduleReloads schedules the scenario's declared mid-run knob
// reloads onto the session, exactly as scenario.Run does.
func scheduleReloads(sess *pipeline.Session, sc *scenario.Scenario) {
	for _, rl := range sc.Reloads {
		sess.ScheduleReload(rl.At.Std(), func(s *pipeline.Session) error {
			if rl.SLO != nil {
				if err := s.ReloadSLO(rl.SLO.Std()); err != nil {
					return err
				}
			}
			if rl.HedgeBudget != nil {
				if err := s.ReloadHedgeBudget(*rl.HedgeBudget); err != nil {
					return err
				}
			}
			if rl.AdmissionDepth != nil {
				return s.ReloadAdmissionDepth(*rl.AdmissionDepth)
			}
			return nil
		})
	}
}

// inject builds the session's network and, for a classic session with
// a VPU group, its graph file, each in its own span, and hands both to
// the session through Config.Net and Config.Blob. Stage sessions still
// compile their segment blobs inside pipeline.build. It returns the
// injected blob (nil when none).
func (r *rep) inject(cfg *pipeline.Config, session string, parent int) ([]byte, error) {
	id := r.tr.begin("nn.build", session, parent)
	net, err := buildNet(*cfg)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	cfg.Net = net
	if len(cfg.Stages) > 0 || sticks(*cfg) == 0 {
		return nil, nil
	}
	id = r.tr.begin("graphfile.compile", session, parent)
	blob, err := graphfile.Compile(net)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	cfg.Blob = blob
	r.blobBytes += len(blob)
	return blob, nil
}

// buildNet builds the workload network the way pipeline.NewFromConfig
// does, defaults included. The traced run's report digest must equal
// the untraced one, which checks that the two builds agree.
func buildNet(cfg pipeline.Config) (*nn.Graph, error) {
	seed := cfg.NetSeed
	if seed == 0 {
		seed = 42
	}
	if cfg.Network == pipeline.NetGoogLeNet || (cfg.Network == pipeline.NetAuto && !cfg.Functional) {
		return nn.NewGoogLeNet(rng.New(seed)), nil
	}
	mc := cfg.Micro
	if mc == (nn.MicroConfig{}) {
		mc = nn.DefaultMicroConfig()
	}
	dc := cfg.Dataset
	if dc == (imagenet.Config{}) {
		dc = imagenet.DefaultConfig()
	}
	temp := cfg.Temperature
	if temp == 0 {
		temp = pipeline.DefaultTemperature
	}
	ds, err := imagenet.New(dc)
	if err != nil {
		return nil, err
	}
	net := nn.NewMicroGoogLeNet(mc, rng.New(seed))
	err = nn.CalibrateClassifier(net, nn.MicroClassifierName, nn.MicroPoolName, ds.PreprocessedPrototypes(), temp)
	return net, err
}

// sticks counts the VPU sticks of a classic session's groups.
func sticks(cfg pipeline.Config) int {
	n := 0
	for _, g := range cfg.Groups {
		if g.Kind == pipeline.GroupVPU {
			n += max(g.Devices, 1)
		}
	}
	return n
}

// probeParse times one standalone parse of the session's blob, outside
// the session span, and charges it once per parse the session made:
// one per stick plus one per recovered outage.
func (r *rep) probeParse(blob []byte, parses int, session string) {
	id := r.tr.begin("graphfile.parse_probe", session, -1)
	_, _, err := graphfile.Parse(blob)
	r.tr.end(id)
	// Collect the probe's garbage, so the next session starts from a
	// freshly collected heap as it does in an untraced run.
	runtime.GC()
	if err != nil {
		r.fail("%s: parse probe: %v", session, err)
		return
	}
	s := r.tr.spans[id]
	r.parses += parses
	r.parseS += s.seconds() * float64(parses)
	r.parseAlloc += float64(s.Alloc) * float64(parses)
}

// addReport folds one session report into the repetition's counters.
func (r *rep) addReport(rep *pipeline.Report, cfg pipeline.Config, single bool) {
	c := rep.Collector
	r.arrivals += c.Arrivals()
	r.completed += c.N
	r.shed += c.Shed
	r.expired += c.Expired
	r.hedged += rep.Hedged
	r.hedgeWins += rep.HedgeWins
	r.hedgeWaste += rep.HedgeWaste
	r.injected += rep.FaultsInjected
	r.retries += rep.Retries
	r.faultDrops += rep.FaultDrops
	r.outages += rep.Outages
	r.minUptime = math.Min(r.minUptime, rep.Uptime)
	if !single {
		return
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	sim := r.res.Sim
	sim["sim_img_per_s"] = rep.Throughput
	sim["sim_img_per_w"] = rep.ImagesPerWatt
	if rep.Latency.N >= 1000 {
		sim["sim_p50_ms"] = ms(rep.Latency.P50)
		sim["sim_p99_ms"] = ms(rep.Latency.P99)
	}
	if rep.SLO > 0 {
		sim["sim_goodput_pct"] = rep.Goodput * 100
	}
	if cfg.Functional {
		sim["top1_err_pct"] = rep.TopOneError * 100
	}
	layers := r.res.Layers
	layers["core.queue_p99_ms"] = ms(rep.Latency.QueueP99)
	layers["core.service_p99_ms"] = ms(rep.Latency.ServiceP99)
	for _, t := range rep.Targets {
		layers[metricName(t.Name)+".img_per_s"] = t.Throughput
	}
}

// metricName turns a target name such as "vpu-multi(8)" into a metric
// name component ("vpu-multi-8").
func metricName(s string) string {
	return strings.NewReplacer("(", "-", ")", "").Replace(s)
}

// layerMetrics computes the per-layer table of a traced repetition:
// self times per layer, allocation and work counts, and the report
// counters each layer owns.
func (r *rep) layerMetrics(sessions []session) {
	self := selfTimes(r.tr.spans)
	type agg struct {
		s     float64
		n     int
		alloc float64
		gc    uint32
	}
	by := map[string]*agg{}
	for i, s := range r.tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.s += self[i]
		a.n++
		a.alloc += float64(s.Alloc)
		a.gc += s.GC
	}
	get := func(name string) agg {
		if a := by[name]; a != nil {
			return *a
		}
		return agg{}
	}
	pct := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	run := get("pipeline.run")
	serve := run.s - r.parseS
	perItem := 0.0
	if r.arrivals > 0 {
		perItem = serve / float64(r.arrivals) * 1e6
	}
	l := r.res.Layers
	l["scenario.compile_s"] = get("scenario.compile").s
	l["nn.build_s"] = get("nn.build").s
	l["nn.builds"] = float64(get("nn.build").n)
	l["nn.build_alloc_mb"] = get("nn.build").alloc / 1e6
	l["graphfile.compile_s"] = get("graphfile.compile").s
	l["graphfile.compiles"] = float64(get("graphfile.compile").n)
	l["graphfile.compile_alloc_mb"] = get("graphfile.compile").alloc / 1e6
	l["graphfile.blob_mb"] = float64(r.blobBytes) / 1e6
	l["graphfile.parse_s"] = r.parseS
	l["graphfile.parses"] = float64(r.parses)
	l["graphfile.parse_alloc_mb"] = r.parseAlloc / 1e6
	l["pipeline.build_s"] = get("pipeline.build").s
	l["pipeline.run_s"] = run.s
	l["pipeline.run_alloc_mb"] = run.alloc / 1e6
	l["pipeline.run_gc"] = float64(run.gc)
	l["pipeline.serve_s"] = serve
	l["pipeline.host_us_per_item"] = perItem
	l["pipeline.heap_live_mb"] = float64(r.heap) / 1e6
	l["pipeline.report_s"] = get("pipeline.report").s
	l["core.shed"] = float64(r.shed)
	l["core.expired"] = float64(r.expired)
	l["core.hedges"] = float64(r.hedged)
	l["core.hedge_win_pct"] = pct(r.hedgeWins, r.hedged)
	l["core.hedge_waste_pct"] = pct(r.hedgeWaste, r.completed+r.hedgeWaste)
	l["core.retries"] = float64(r.retries)
	l["core.fault_drops"] = float64(r.faultDrops)
	l["fault.injected"] = float64(r.injected)
	l["ncs.outages"] = float64(r.outages)
	l["ncs.uptime_pct"] = 100 * r.minUptime
	if len(sessions) > 1 {
		for _, s := range sessions {
			l[r.w.name+"."+s.name+".wall_s"] = r.durations(s.name, wallLayers...)
		}
	}
}
