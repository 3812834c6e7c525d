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

	"repro/internal/core"
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
