package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graphfile"
	"repro/internal/nn"
	"repro/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/functional.golden from this run")

// functionalGoldenSessions are the functional sessions the golden pins:
// the benchmark's Fig. 7 fleet (its VPU group completes nothing: the
// CPU drains all 600 images inside the sticks' 850 ms boot) and a
// VPU-only FP16 fleet, so the stick path is pinned too.
var functionalGoldenSessions = []struct {
	name string
	cfg  Config
}{
	{"vpu4+cpu-b8 work-stealing", Config{
		Functional: true,
		Network:    NetMicro,
		Images:     600,
		Seed:       1,
		Routing:    core.RouteWorkStealing,
		Groups:     []Group{{Kind: GroupVPU, Devices: 4}, {Kind: GroupCPU, Batch: 8}},
	}},
	{"vpu4 fp16", Config{
		Functional: true,
		Network:    NetMicro,
		Images:     200,
		Seed:       1,
		Groups:     []Group{{Kind: GroupVPU, Devices: 4}},
	}},
}

// TestFunctionalGolden pins what functional sessions output: per group,
// the completed count, top-1 error, mean confidence and a sha256 over
// every completed image's (Index, Pred, Confidence bits) in index
// order. Any change to the fp16 or fp32 arithmetic that moves one
// prediction or one confidence bit fails it. Regenerate with
//
//	go test ./internal/pipeline -run TestFunctionalGolden -update
func TestFunctionalGolden(t *testing.T) {
	var b strings.Builder
	for _, gs := range functionalGoldenSessions {
		cfg := gs.cfg
		cfg.Retain = true
		sess, err := NewFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		groupOf := deviceGroups(sess)
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		byGroup := make([][]core.Result, len(rep.Targets))
		for _, r := range rep.Results {
			g, ok := groupOf[r.Device]
			if !ok {
				t.Fatalf("%s: result from unknown device %q", gs.name, r.Device)
			}
			byGroup[g] = append(byGroup[g], r)
		}
		fmt.Fprintf(&b, "session %s: images %d top1 %s\n", gs.name, rep.Images, ftoa(rep.TopOneError))
		for i, tr := range rep.Targets {
			fmt.Fprintf(&b, "  group %s: completed %d top1 %s conf %s sha256 %s\n",
				tr.Name, tr.Images, ftoa(tr.TopOneError), ftoa(tr.MeanConfidence), resultDigest(byGroup[i]))
		}
	}
	path := filepath.Join("testdata", "functional.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("functional outputs differ from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// deviceGroups maps each device name a session's results can carry to
// its group index: a VPU group's sticks in order, any other group's
// target name.
func deviceGroups(sess *Session) map[string]int {
	m := map[string]int{}
	sticks := sess.Devices()
	for i, g := range sess.cfg.Groups {
		if g.Kind != GroupVPU {
			m[sess.Targets()[i].Name()] = i
			continue
		}
		for _, d := range sticks[:g.Devices] {
			m[d.Name()] = i
		}
		sticks = sticks[g.Devices:]
	}
	return m
}

// resultDigest hashes the (Index, Pred, Confidence bits) of rs in index
// order.
func resultDigest(rs []core.Result) string {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Index < rs[j].Index })
	h := sha256.New()
	var buf [12]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(r.Index))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.Pred))
		binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(r.Confidence))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// TestFunctionalFollowsItemImage: a functional session classifies the
// image each item carries, not the dataset image at the item's index.
// The items here carry dataset images 100.. under indices 0.., so each
// group's predictions must equal a direct nn.Classify of those images
// at the group's precision (FP32 on the session network for the CPU,
// FP16 on the network parsed from the graph file for the sticks).
func TestFunctionalFollowsItemImage(t *testing.T) {
	const n, offset = 12, 100
	for _, g := range []Group{{Kind: GroupCPU, Batch: 8}, {Kind: GroupVPU, Devices: 2}} {
		sess, err := NewFromConfig(Config{Functional: true, Retain: true, Groups: []Group{g}})
		if err != nil {
			t.Fatal(err)
		}
		ds := sess.Dataset()
		items := make([]core.Item, n)
		for i := range items {
			items[i] = core.Item{Index: i, Image: ds.Preprocessed(offset + i), Label: ds.Label(offset + i)}
		}
		sess.SetSource(core.NewSliceSource(items))
		pass := nn.Pass{Net: sess.Network(), Prec: nn.FP32}
		if blob := sess.Blob(); blob != nil {
			net16, _, err := graphfile.Parse(blob)
			if err != nil {
				t.Fatal(err)
			}
			pass = nn.Pass{Net: net16, Prec: nn.FP16}
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		own, err := nn.Classify(n, func(i int) *tensor.T { return items[i].Image }, pass)
		if err != nil {
			t.Fatal(err)
		}
		byIndex, err := nn.Classify(n, ds.Preprocessed, pass)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != n {
			t.Fatalf("%v: %d results, want %d", pass.Prec, len(rep.Results), n)
		}
		differ := 0
		for _, r := range rep.Results {
			want := own[0][r.Index]
			if r.Pred != want.Class || math.Float32bits(r.Confidence) != math.Float32bits(want.Conf) {
				t.Errorf("%v item %d: pred %d conf %g, want the item image's %d %g", pass.Prec, r.Index, r.Pred, r.Confidence, want.Class, want.Conf)
			}
			if byIndex[0][r.Index] != want {
				differ++
			}
		}
		if differ == 0 {
			t.Errorf("%v: the item images predict exactly as the dataset images at their indices; the test cannot tell them apart", pass.Prec)
		}
		if got := rep.Collector.Correct + rep.Collector.Mispred; got != n {
			t.Errorf("%v: scored %d of %d", pass.Prec, got, n)
		}
	}
}

// TestFunctionalHedgedGroupsScoreEveryCompletion: in a hedged
// two-group functional session (a 2-stick VPU group beside a CPU
// group, a straggler stick drawing duplicates onto the CPU), every
// collector scores each of its completions exactly once, and the
// merged totals are the sums of the group rows.
func TestFunctionalHedgedGroupsScoreEveryCompletion(t *testing.T) {
	const n = 120
	sess, err := NewFromConfig(Config{
		Functional:    true,
		Images:        n,
		Groups:        []Group{{Kind: GroupVPU, Devices: 2}, {Kind: GroupCPU, Batch: 8}},
		Routing:       core.RouteRoundRobin,
		Arrivals:      core.DelayedArrivals(core.PoissonArrivals(30), 2*time.Second),
		BatchMaxWait:  50 * time.Millisecond,
		AdaptiveBatch: true,
		Faults: fault.Plan{Events: []fault.Event{
			{Device: "ncs1", Kind: fault.Slowdown, At: 2 * time.Second, Factor: 10, Duration: 4 * time.Second},
		}},
		Recovery: core.DefaultRecoveryConfig(),
		Hedge:    core.HedgeConfig{Trigger: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HedgeWins == 0 {
		t.Error("no duplicate won against a 10x straggler stick")
	}
	m := rep.Collector
	if m.N != n || m.Correct+m.Mispred != n {
		t.Errorf("merged: N %d, scored %d, want %d", m.N, m.Correct+m.Mispred, n)
	}
	var sum core.Collector
	for _, tr := range rep.Targets {
		c := tr.Collector
		if c.N == 0 {
			t.Errorf("group %s completed nothing", tr.Name)
		}
		if c.Correct+c.Mispred != c.N {
			t.Errorf("group %s: scored %d of %d completions", tr.Name, c.Correct+c.Mispred, c.N)
		}
		sum.N += c.N
		sum.Correct += c.Correct
		sum.Mispred += c.Mispred
	}
	if sum.N != m.N || sum.Correct != m.Correct || sum.Mispred != m.Mispred {
		t.Errorf("group rows sum to N %d correct %d mispred %d; merged has %d %d %d",
			sum.N, sum.Correct, sum.Mispred, m.N, m.Correct, m.Mispred)
	}
}
