package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

// renderCounts prints kernel counts on one line, processes by name.
func renderCounts(c sim.Counts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events %d resumes %d:", c.Events, c.Resumes)
	names := make([]string, 0, len(c.ByName))
	for name := range c.ByName {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, c.ByName[name])
	}
	return b.String()
}

// TestServingKernelCounts pins the simulation kernel's event and
// process-resume counts for the benchmark's two serving workloads
// (cmd/ncsw-perf/workloads) at its quick scale, and for two corpus
// scenarios that exercise the rest of the ingress edge at their own
// scale: flash-crowd's three weighted-fair tenant lanes and
// slo-bounded's depth-16 shed-newest admission queue. The counts are
// the host-independent cost of a run: a change that adds coroutine
// switches, or removes them, moves these numbers, and the pin makes
// it say so. The edge relays (arrivals, admission, tenant lanes) and
// the hops of a USB transfer run as scheduler callbacks, so they add
// events but no resumes: a transfer resumes its caller once.
func TestServingKernelCounts(t *testing.T) {
	corpus, err := DefaultCorpusDir()
	if err != nil {
		t.Fatal(err)
	}
	workloads := filepath.Join(filepath.Dir(corpus), "cmd", "ncsw-perf", "workloads")
	for _, tc := range []struct {
		dir    string
		name   string
		images int // 0 keeps the file's own count
		want   string
	}{
		{workloads, "cpu-gpu-serve", 3000, "events 10706 resumes 4673: " +
			"cpu=865 gpu=1150 pool-main=2658"},
		{workloads, "vpu8-hedged", 400, "events 11660 resumes 3996: " +
			"fault-driver=15 " +
			"ncs0/runtime=158 ncs1/runtime=158 ncs2/runtime=158 ncs3/runtime=152 " +
			"ncs4/runtime=152 ncs5/runtime=152 ncs6/runtime=152 ncs7/runtime=152 " +
			"ncsw-main=440 ncsw-worker0=294 ncsw-worker1=296 ncsw-worker2=296 ncsw-worker3=286 " +
			"ncsw-worker4=287 ncsw-worker5=283 ncsw-worker6=281 ncsw-worker7=284"},
		{corpus, "flash-crowd", 0, "events 8520 resumes 3284: " +
			"ncs0/runtime=263 ncs1/runtime=263 ncs2/runtime=263 ncs3/runtime=263 " +
			"ncsw-main=348 ncsw-worker0=471 ncsw-worker1=470 ncsw-worker2=471 ncsw-worker3=472"},
		{corpus, "slo-bounded", 0, "events 889 resumes 87: cpu=87"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(tc.dir, tc.name+".json")
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Parse(data, file)
			if err != nil {
				t.Fatal(err)
			}
			if tc.images > 0 {
				sc.Images = tc.images
			}
			cfg, err := sc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sess, err := pipeline.NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			if got := renderCounts(sess.Env().Counts()); got != tc.want {
				t.Errorf("kernel counts:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
