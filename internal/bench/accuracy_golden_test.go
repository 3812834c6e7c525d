package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/accuracy.golden from this run")

// TestAccuracyGolden pins the accuracy experiments' output: the
// rendered Fig. 7a and 7b tables over three 40-image subsets, the
// precision ablation over 60 images, and the exact bits of one
// MeasureErrorAt. Any change to how the networks are built or how
// images are classified that moves one prediction fails it, at any
// GOMAXPROCS. Regenerate with
//
//	go test ./internal/bench -run TestAccuracyGolden -update
func TestAccuracyGolden(t *testing.T) {
	skipHeavy(t)
	h, err := NewHarness(Config{ImagesPerSubset: 100, Subsets: 3, FunctionalImagesPerSubset: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, gen := range []func() (*Table, error){
		h.Fig7a,
		h.Fig7b,
		func() (*Table, error) { return h.PrecisionAblation(60) },
	} {
		tbl, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tbl.String())
	}
	e, err := MeasureErrorAt(19.48, 200)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "MeasureErrorAt(19.48, 200) = %x\n", e)

	path := filepath.Join("testdata", "accuracy.golden")
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
		t.Errorf("accuracy outputs differ from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
