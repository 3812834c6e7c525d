package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse throws arbitrary bytes at the strict parser: whatever the
// input, Parse must never panic, and every rejection must name the
// file. When parsing succeeds, a cut-free scenario must compile, and
// its config must pass pipeline.Config.Validate: whatever Parse
// accepts, the session constructor accepts (cut resolution builds a
// network per call, too slow for the fuzz loop).
func FuzzParse(f *testing.F) {
	seeds := []string{
		minimal,
		``,
		`{}`,
		`[]`,
		`null`,
		`{"name":`,
		`{"name":"t","fleet":{"groups":[{"kind":"cpu"}]}}`,
		`{"name":"t","fleet":{"groups":[{"kind":"tpu"}]}}`,
		`{"name":"t","images":"many","fleet":{"groups":[{"kind":"cpu"}]}}`,
		`{"name":"t","slo":"fortnight","fleet":{"groups":[{"kind":"cpu"}]}}`,
		`{"name":"t","slo":-250,"fleet":{"groups":[{"kind":"cpu"}]}}`,
		`{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},"floot":1}`,
		`{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
			"traffic":{"arrivals":{"process":"phased","cycle":true,"phases":[
				{"process":"silence","duration":"20s"},
				{"process":"poisson","rate":40,"duration":"30s"}]}}}`,
		`{"name":"t","fleet":{"groups":[{"kind":"vpu","devices":4}]},
			"traffic":{"arrivals":{"process":"poisson","rate":20,"delay":"10s"}},
			"slo":600,"admission":{"depth":24,"shrink":true},
			"faults":{"events":[{"device":"ncs0","kind":"hang","at":"15s"}]},
			"recovery":{"timeout":"2s"},
			"reloads":[{"at":"18s","admission_depth":12}]}`,
		`{"name":"t","fleet":{"groups":[{"kind":"cpu"}]},
			"traffic":{"tenants":{"scheduler":"weighted-fair","tenants":[
				{"id":"a","weight":3,"arrivals":{"process":"poisson","rate":15}},
				{"id":"b","arrivals":{"process":"bursty","rate":60,"on":"5s","off":"10s"}}]}}}`,
		`{"name":"t","network":"googlenet","fleet":{
			"stages":[{"kind":"vpu","devices":2},{"kind":"gpu","batch":4}],
			"cuts":["inception_4e/output"]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// The committed corpus files are the richest seeds of all.
	if dir, err := DefaultCorpusDir(); err == nil {
		if entries, err := os.ReadDir(dir); err == nil {
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
					continue
				}
				if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
					f.Add(data)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data, "fuzz.json")
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.json") {
				t.Fatalf("rejection does not name the file: %v", err)
			}
			return
		}
		if len(sc.Fleet.Cuts) == 0 {
			cfg, err := sc.Compile()
			if err != nil {
				t.Fatalf("validated cut-free scenario failed to compile: %v", err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Parse accepted a config the session constructor refuses: %v", err)
			}
		}
	})
}
