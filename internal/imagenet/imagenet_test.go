package imagenet

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func smallConfig() Config {
	return Config{
		Classes: 10, Images: 200, Subsets: 5,
		Channels: 3, Size: 16, NoiseSigma: 40, Seed: 7,
	}
}

func mustDataset(t testing.TB, cfg Config) *Dataset {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Classes: 1, Images: 10, Subsets: 1, Channels: 3, Size: 8},
		{Classes: 2, Images: 0, Subsets: 1, Channels: 3, Size: 8},
		{Classes: 2, Images: 4, Subsets: 5, Channels: 3, Size: 8},
		{Classes: 2, Images: 4, Subsets: 0, Channels: 3, Size: 8},
		{Classes: 2, Images: 4, Subsets: 1, Channels: 0, Size: 8},
		{Classes: 2, Images: 4, Subsets: 1, Channels: 3, Size: 8, NoiseSigma: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustDataset(t, smallConfig())
	b := mustDataset(t, smallConfig())
	for i := 0; i < 20; i++ {
		if a.Label(i) != b.Label(i) {
			t.Fatalf("labels diverge at %d", i)
		}
		ia, ib := a.Image(i), b.Image(i)
		for j := range ia.Data {
			if ia.Data[j] != ib.Data[j] {
				t.Fatalf("image %d diverges at pixel %d", i, j)
			}
		}
	}
	// Image access order must not matter.
	c := mustDataset(t, smallConfig())
	img5 := c.Image(5)
	img5again := mustDataset(t, smallConfig()).Image(5)
	_ = mustDataset(t, smallConfig()).Image(3)
	for j := range img5.Data {
		if img5.Data[j] != img5again.Data[j] {
			t.Fatal("image generation depends on access order")
		}
	}
}

func TestLabelsCoverClasses(t *testing.T) {
	d := mustDataset(t, smallConfig())
	counts := make([]int, d.Classes())
	for i := 0; i < d.Len(); i++ {
		l := d.Label(i)
		if l < 0 || l >= d.Classes() {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("class %d never appears in 200 images", c)
		}
	}
}

// TestLabelStreams: an image's label comes from the "labels"
// sub-stream of the dataset seed, indexed by the image, and reading it
// allocates nothing.
func TestLabelStreams(t *testing.T) {
	cfg := smallConfig()
	d := mustDataset(t, cfg)
	for i := range d.Len() {
		if want := rng.New(cfg.Seed).Derive("labels").DeriveIndex(i).Intn(cfg.Classes); d.Label(i) != want {
			t.Fatalf("Label(%d) = %d, want %d", i, d.Label(i), want)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { i = (i + d.Label(i) + 1) % d.Len() }); allocs != 0 {
		t.Errorf("Label allocates %.0f times, want 0", allocs)
	}
}

// TestLabelOnlyLeavesTableUnbuilt: a dataset read only for labels,
// annotations, synsets and subsets never builds its prototype table,
// and each pixel or mean accessor builds it on first use.
func TestLabelOnlyLeavesTableUnbuilt(t *testing.T) {
	d := mustDataset(t, smallConfig())
	for i := range d.Len() {
		d.Label(i)
		d.Annotation(i)
		d.FileName(i)
	}
	for c := range d.Classes() {
		d.Synset(c)
	}
	d.SubsetRange(0)
	if d.protos != nil || d.mean != nil {
		t.Fatal("label-only reads built the prototype table")
	}
	for name, read := range map[string]func(d *Dataset){
		"Image":                  func(d *Dataset) { d.Image(0) },
		"Prototype":              func(d *Dataset) { d.Prototype(0) },
		"Mean":                   func(d *Dataset) { d.Mean() },
		"Preprocess":             func(d *Dataset) { d.Preprocess(tensor.New(3, 16, 16)) },
		"PreprocessedPrototypes": func(d *Dataset) { d.PreprocessedPrototypes() },
	} {
		d := mustDataset(t, smallConfig())
		read(d)
		if len(d.protos) != d.Classes() || len(d.mean) != d.Config().Channels {
			t.Errorf("%s left the prototype table unbuilt", name)
		}
	}
}

// TestDatasetConcurrentFirstRead: goroutines whose Image call is the
// dataset's first pixel read get the same bits as each other and as a
// dataset whose table was built before (run under -race too).
func TestDatasetConcurrentFirstRead(t *testing.T) {
	want := mustDataset(t, smallConfig())
	want.Mean()
	d := mustDataset(t, smallConfig())
	var got [2]*tensor.T
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = d.Image(3)
		}()
	}
	wg.Wait()
	ref := want.Image(3)
	for g, img := range got {
		for j := range ref.Data {
			if math.Float32bits(img.Data[j]) != math.Float32bits(ref.Data[j]) {
				t.Fatalf("goroutine %d: pixel %d = %g, want %g", g, j, img.Data[j], ref.Data[j])
			}
		}
	}
}

func TestPixelsInRange(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseSigma = 500 // extreme noise must still clamp
	d := mustDataset(t, cfg)
	img := d.Image(0)
	for _, v := range img.Data {
		if v < 0 || v > 255 {
			t.Fatalf("pixel %g out of [0,255]", v)
		}
	}
}

func TestZeroNoiseReproducesPrototype(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseSigma = 0
	d := mustDataset(t, cfg)
	i := 3
	img := d.Image(i)
	proto := d.Prototype(d.Label(i))
	for j := range img.Data {
		if img.Data[j] != proto.Data[j] {
			t.Fatal("zero-noise image differs from prototype")
		}
	}
}

func TestMeanAndPreprocess(t *testing.T) {
	d := mustDataset(t, smallConfig())
	mean := d.Mean()
	if len(mean) != 3 {
		t.Fatalf("mean has %d channels", len(mean))
	}
	for ch, m := range mean {
		// Uniform [0,256) prototypes: mean near 127.5.
		if m < 110 || m > 145 {
			t.Errorf("channel %d mean = %g, expected ~127.5", ch, m)
		}
	}
	img := d.Image(0)
	raw := img.Clone()
	d.Preprocess(img)
	plane := 16 * 16
	for ch := 0; ch < 3; ch++ {
		for j := 0; j < plane; j++ {
			want := raw.Data[ch*plane+j] - mean[ch]
			if img.Data[ch*plane+j] != want {
				t.Fatal("preprocess arithmetic wrong")
			}
		}
	}
	pre := d.Preprocessed(0)
	for j := range pre.Data {
		if pre.Data[j] != img.Data[j] {
			t.Fatal("Preprocessed != Image+Preprocess")
		}
	}
}

func TestPreprocessedPrototypes(t *testing.T) {
	d := mustDataset(t, smallConfig())
	pp := d.PreprocessedPrototypes()
	if len(pp) != d.Classes() {
		t.Fatalf("got %d prototypes", len(pp))
	}
	// Originals must stay untouched (raw pixel space).
	for _, v := range d.Prototype(0).Data {
		if v < 0 {
			t.Fatal("Prototype mutated by PreprocessedPrototypes")
		}
	}
	// Preprocessed ones are roughly zero-mean.
	var sum float64
	for _, v := range pp[0].Data {
		sum += float64(v)
	}
	if m := sum / float64(pp[0].Elems()); math.Abs(m) > 40 {
		t.Errorf("preprocessed prototype mean = %g, expected near 0", m)
	}
}

func TestSubsets(t *testing.T) {
	d := mustDataset(t, smallConfig())
	total := 0
	prevHi := 0
	for k := 0; k < 5; k++ {
		lo, hi := d.SubsetRange(k)
		if lo != prevHi {
			t.Errorf("subset %d starts at %d, want %d", k, lo, prevHi)
		}
		if d.SubsetSize(k) != hi-lo {
			t.Error("SubsetSize mismatch")
		}
		total += hi - lo
		prevHi = hi
	}
	if total != d.Len() {
		t.Errorf("subsets cover %d of %d images", total, d.Len())
	}
	if d.SubsetName(0) != "Set-1" || d.SubsetName(4) != "Set-5" {
		t.Error("subset naming")
	}
}

func TestSubsetRemainderGoesToLast(t *testing.T) {
	cfg := smallConfig()
	cfg.Images = 203 // 5 subsets of 40 + last gets 43
	d := mustDataset(t, cfg)
	if d.SubsetSize(0) != 40 || d.SubsetSize(4) != 43 {
		t.Errorf("sizes = %d, %d", d.SubsetSize(0), d.SubsetSize(4))
	}
}

func TestIndexPanics(t *testing.T) {
	d := mustDataset(t, smallConfig())
	for _, f := range []func(){
		func() { d.Image(-1) },
		func() { d.Image(200) },
		func() { d.Label(200) },
		func() { d.Prototype(10) },
		func() { d.SubsetRange(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFileName(t *testing.T) {
	d := mustDataset(t, smallConfig())
	if got := d.FileName(0); got != "ILSVRC2012_val_00000001" {
		t.Errorf("FileName(0) = %q", got)
	}
}

func TestSynsets(t *testing.T) {
	s := Synsets(100, rng.New(1))
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[string]bool{}
	for _, syn := range s {
		if !strings.HasPrefix(syn.WNID, "n") || len(syn.WNID) != 9 {
			t.Errorf("bad WNID %q", syn.WNID)
		}
		if seen[syn.WNID] {
			t.Errorf("duplicate WNID %q", syn.WNID)
		}
		seen[syn.WNID] = true
		if !strings.Contains(syn.Name, " ") {
			t.Errorf("gloss %q not two words", syn.Name)
		}
	}
	// Deterministic.
	s2 := Synsets(100, rng.New(1))
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("synsets not deterministic")
		}
	}
}

func TestAnnotationRoundTrip(t *testing.T) {
	d := mustDataset(t, smallConfig())
	a := d.Annotation(7)
	if a.Filename != d.FileName(7) {
		t.Error("filename mismatch")
	}
	if a.Size.Width != 16 || a.Size.Depth != 3 {
		t.Error("size record wrong")
	}
	bb := a.Objects[0].BndBox
	if bb.XMin < 0 || bb.XMax >= 16 || bb.XMin >= bb.XMax || bb.YMin >= bb.YMax {
		t.Errorf("degenerate bbox %+v", bb)
	}
	data, err := MarshalAnnotation(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<bndbox>") {
		t.Error("XML missing bndbox")
	}
	back, err := ParseAnnotation(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Objects[0].Name != a.Objects[0].Name || back.Objects[0].BndBox != bb {
		t.Error("round trip lost data")
	}
	// The paper's label-extraction path.
	label, err := d.LabelFromAnnotation(back)
	if err != nil {
		t.Fatal(err)
	}
	if label != d.Label(7) {
		t.Errorf("annotation label %d, dataset label %d", label, d.Label(7))
	}
}

func TestParseAnnotationErrors(t *testing.T) {
	if _, err := ParseAnnotation([]byte("not xml")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParseAnnotation([]byte("<annotation></annotation>")); err == nil {
		t.Error("empty annotation accepted")
	}
	d := mustDataset(t, smallConfig())
	if _, err := d.LabelFromAnnotation(Annotation{Objects: []Object{{Name: "n99999999"}}}); err == nil {
		t.Error("unknown WNID accepted")
	}
	if _, err := d.LabelFromAnnotation(Annotation{}); err == nil {
		t.Error("no-object annotation accepted")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	d := mustDataset(t, smallConfig())
	img := d.Image(0)
	data, err := EncodePPM(img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "P6\n16 16\n255\n") {
		t.Errorf("header = %q", data[:20])
	}
	back, err := DecodePPM(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ShapeOf.Equal(tensor.Shape{3, 16, 16}) {
		t.Fatalf("shape = %v", back.ShapeOf)
	}
	for i := range img.Data {
		if math.Abs(float64(img.Data[i]-back.Data[i])) > 0.5 {
			t.Fatalf("pixel %d: %g vs %g (8-bit quantization bound exceeded)", i, img.Data[i], back.Data[i])
		}
	}
}

func TestPPMComments(t *testing.T) {
	data := []byte("P6\n# a comment\n2 1\n# more\n255\n\x01\x02\x03\x04\x05\x06")
	img, err := DecodePPM(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Dim(2) != 2 || img.Dim(1) != 1 {
		t.Errorf("shape = %v", img.ShapeOf)
	}
	if img.At(0, 0, 1) != 4 { // second pixel R channel
		t.Errorf("pixel = %g", img.At(0, 0, 1))
	}
}

func TestPPMErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("P5\n1 1\n255\n\x00"),         // wrong magic
		[]byte("P6\n1 1\n127\n\x00\x00\x00"), // unsupported maxval
		[]byte("P6\n1 1\n255\n\x00"),         // truncated pixels
		[]byte("P6\n0 1\n255\n"),             // zero width
		[]byte("P6\n99999 99999 \n255\n"),    // implausible size
		[]byte("P6\n1"),                      // truncated header
		{},                                   // empty
	}
	for i, c := range cases {
		if _, err := DecodePPM(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEncodePPMErrors(t *testing.T) {
	if _, err := EncodePPM(tensor.New(1, 4, 4)); err == nil {
		t.Error("single channel accepted")
	}
	if _, err := EncodePPM(tensor.New(12)); err == nil {
		t.Error("flat tensor accepted")
	}
}

func TestResizeIdentity(t *testing.T) {
	d := mustDataset(t, smallConfig())
	img := d.Image(0)
	same := Resize(img, 16, 16)
	for i := range img.Data {
		if same.Data[i] != img.Data[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
	same.Data[0] = -1
	if img.Data[0] == -1 {
		t.Fatal("identity resize aliases input")
	}
}

func TestResizeConstantImage(t *testing.T) {
	img := tensor.New(3, 8, 8)
	img.Fill(42)
	out := Resize(img, 13, 5)
	if !out.ShapeOf.Equal(tensor.Shape{3, 13, 5}) {
		t.Fatalf("shape = %v", out.ShapeOf)
	}
	for _, v := range out.Data {
		if math.Abs(float64(v-42)) > 1e-4 {
			t.Fatalf("bilinear of constant image = %g", v)
		}
	}
}

func TestResizeGradientPreservesMonotonicity(t *testing.T) {
	img := tensor.New(1, 1, 8)
	for x := 0; x < 8; x++ {
		img.Data[x] = float32(x)
	}
	out := Resize(img, 1, 16)
	for x := 1; x < 16; x++ {
		if out.Data[x] < out.Data[x-1] {
			t.Fatalf("upscaled gradient not monotone at %d: %v", x, out.Data)
		}
	}
}

func TestResizePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Resize(tensor.New(4), 2, 2) },
		func() { Resize(tensor.New(1, 2, 2), 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: every generated image classifies pixels into [0,255] and
// the label matches the annotation-extracted label.
func TestQuickImageInvariants(t *testing.T) {
	d := mustDataset(t, smallConfig())
	f := func(raw uint16) bool {
		i := int(raw) % d.Len()
		img := d.Image(i)
		for _, v := range img.Data {
			if v < 0 || v > 255 {
				return false
			}
		}
		label, err := d.LabelFromAnnotation(d.Annotation(i))
		return err == nil && label == d.Label(i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Config returns the dataset configuration.
func (d *Dataset) Config() Config { return d.cfg }

// Prototype returns the raw-pixel prototype of a class. The returned
// tensor is shared; callers must not modify it.
func (d *Dataset) Prototype(class int) *tensor.T {
	if class < 0 || class >= d.cfg.Classes {
		panic(fmt.Sprintf("imagenet: class %d out of range", class))
	}
	protos, _ := d.table()
	return protos[class]
}

// SubsetSize returns the image count of subset k (0-based); the last
// subset absorbs the remainder.
func (d *Dataset) SubsetSize(k int) int {
	lo, hi := d.SubsetRange(k)
	return hi - lo
}

// SubsetName returns the paper's subset naming ("Set-1" ... "Set-5").
func (d *Dataset) SubsetName(k int) string { return fmt.Sprintf("Set-%d", k+1) }
