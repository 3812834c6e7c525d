package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/imagenet"
	"repro/internal/tensor"
)

// LoadFolder is the ImageFolder of Fig. 3: it loads every .ppm image
// under dir, resizes it to size×size (channels are fixed at 3),
// subtracts means (one value per channel), and returns the items in
// filename order, for a session's Config.Items. Ground truth comes
// from sibling .xml bounding-box annotations when present (label -1
// otherwise); labelOf resolves an annotation WNID to a class index and
// may be nil when no annotations exist.
//
// All file I/O happens here, mirroring NCSw's exclusion of decode time
// from measurements; serving the items never touches the disk.
func LoadFolder(dir string, size int, means []float32, labelOf func(wnid string) (int, bool)) ([]Item, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: folder source size %d", size)
	}
	if len(means) != 3 {
		return nil, fmt.Errorf("core: need 3 channel means, got %d", len(means))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ppm") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no .ppm images in %s", dir)
	}
	sort.Strings(names)

	items := make([]Item, 0, len(names))
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		img, err := imagenet.DecodePPM(data)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		img = imagenet.Resize(img, size, size)
		subtractMeans(img, means)
		// Arrival cannot be known at load time; the source serving the
		// items stamps it at the pull instant, closed-loop.
		//ncsw:allow resultstamp stamped by Next at the pull instant
		item := Item{Index: i, Image: img, Label: -1}
		if label, ok := lookupAnnotation(dir, name, labelOf); ok {
			item.Label = label
		}
		items = append(items, item)
	}
	return items, nil
}

func subtractMeans(img *tensor.T, means []float32) {
	plane := img.Dim(1) * img.Dim(2)
	for ch := 0; ch < img.Dim(0) && ch < len(means); ch++ {
		data := img.Data[ch*plane : (ch+1)*plane]
		for i := range data {
			data[i] -= means[ch]
		}
	}
}

// lookupAnnotation reads "<stem>.xml" next to the image and resolves
// its WNID through labelOf.
func lookupAnnotation(dir, imgName string, labelOf func(string) (int, bool)) (int, bool) {
	if labelOf == nil {
		return 0, false
	}
	stem := strings.TrimSuffix(imgName, ".ppm")
	data, err := os.ReadFile(filepath.Join(dir, stem+".xml"))
	if err != nil {
		return 0, false
	}
	ann, err := imagenet.ParseAnnotation(data)
	if err != nil || len(ann.Objects) == 0 {
		return 0, false
	}
	return labelOf(ann.Objects[0].Name)
}

// WriteSampleFolder materializes images [lo, hi) of a synthetic
// dataset as .ppm files with .xml annotations into dir — the tool the
// folder-based workflow (cmd/make-dataset, ncsw-classify -folder)
// uses, and the reproduction's stand-in for downloading ILSVRC.
func WriteSampleFolder(ds *imagenet.Dataset, dir string, lo, hi int) error {
	if lo < 0 || hi > ds.Len() || lo >= hi {
		return fmt.Errorf("core: range [%d,%d) invalid for dataset of %d", lo, hi, ds.Len())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		stem := filepath.Join(dir, ds.FileName(i))
		img := ds.Image(i)
		ppm, err := imagenet.EncodePPM(img)
		if err != nil {
			return err
		}
		if err := os.WriteFile(stem+".ppm", ppm, 0o644); err != nil {
			return err
		}
		xml, err := imagenet.MarshalAnnotation(ds.Annotation(i))
		if err != nil {
			return err
		}
		if err := os.WriteFile(stem+".xml", xml, 0o644); err != nil {
			return err
		}
	}
	return nil
}
