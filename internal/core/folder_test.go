package core

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteAndReadSampleFolder(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	if err := WriteSampleFolder(ds, dir, 0, 10); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 { // 10 ppm + 10 xml
		t.Fatalf("wrote %d files, want 20", len(entries))
	}

	labelOf := func(wnid string) (int, bool) {
		for c := 0; c < ds.Classes(); c++ {
			if ds.Synset(c).WNID == wnid {
				return c, true
			}
		}
		return 0, false
	}
	items, err := LoadFolder(dir, 32, ds.Mean(), labelOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 {
		t.Fatalf("loaded %d images", len(items))
	}
	for i, item := range items {
		if item.Index != i {
			t.Errorf("item %d has index %d", i, item.Index)
		}
		if item.Image == nil {
			t.Fatal("no image")
		}
		// Resized from 16x16 (dataset) to 32x32 (requested).
		if item.Image.Elems() != 3*32*32 {
			t.Fatalf("image elems = %d", item.Image.Elems())
		}
		if item.Label != ds.Label(i) {
			t.Errorf("image %d label %d, want %d (from annotation)", i, item.Label, ds.Label(i))
		}
	}
}

func TestFolderSourceWithoutAnnotations(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	if err := WriteSampleFolder(ds, dir, 0, 3); err != nil {
		t.Fatal(err)
	}
	// Remove the annotations; labels become -1.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.xml"))
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	items, err := LoadFolder(dir, 16, ds.Mean(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[0].Label != -1 {
		t.Errorf("expected 3 unlabeled items, got %d, first %+v", len(items), items[0])
	}
}

func TestFolderSourceErrors(t *testing.T) {
	if _, err := LoadFolder("/nonexistent-dir-xyz", 32, []float32{0, 0, 0}, nil); err == nil {
		t.Error("missing dir accepted")
	}
	empty := t.TempDir()
	if _, err := LoadFolder(empty, 32, []float32{0, 0, 0}, nil); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := LoadFolder(empty, 0, []float32{0, 0, 0}, nil); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := LoadFolder(empty, 32, []float32{0}, nil); err == nil {
		t.Error("wrong mean count accepted")
	}
	// Corrupt PPM.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "x.ppm"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFolder(bad, 32, []float32{0, 0, 0}, nil); err == nil {
		t.Error("corrupt image accepted")
	}
}

func TestWriteSampleFolderValidation(t *testing.T) {
	ds := smallDataset(t)
	if err := WriteSampleFolder(ds, t.TempDir(), 5, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if err := WriteSampleFolder(ds, t.TempDir(), 0, 1000); err == nil {
		t.Error("out-of-range accepted")
	}
}
