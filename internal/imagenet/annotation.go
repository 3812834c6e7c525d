package imagenet

import (
	"encoding/xml"
	"fmt"
)

// Annotation is one record of the ILSVRC Validation Bounding Box
// Annotations, in the published XML schema. The paper estimates its
// miss-prediction rate "by extracting the labels from the Validation
// Bounding Box Annotations dataset"; the experiment harness does the
// same through ParseAnnotation rather than reading labels directly off
// the Dataset, so the full label-extraction path is exercised.
type Annotation struct {
	XMLName  xml.Name `xml:"annotation"`
	Folder   string   `xml:"folder"`
	Filename string   `xml:"filename"`
	Size     ImgSize  `xml:"size"`
	Objects  []Object `xml:"object"`
}

// ImgSize is the annotated image geometry.
type ImgSize struct {
	Width  int `xml:"width"`
	Height int `xml:"height"`
	Depth  int `xml:"depth"`
}

// Object is one annotated instance with its bounding box.
type Object struct {
	Name   string `xml:"name"` // the WNID — this is the ground-truth label
	BndBox BndBox `xml:"bndbox"`
}

// BndBox is a pixel-coordinate bounding box.
type BndBox struct {
	XMin int `xml:"xmin"`
	YMin int `xml:"ymin"`
	XMax int `xml:"xmax"`
	YMax int `xml:"ymax"`
}

// Annotation builds the bounding-box record for image i. The box is a
// deterministic pseudo-random crop covering most of the frame (the
// synthetic "object").
func (d *Dataset) Annotation(i int) Annotation {
	d.checkIndex(i)
	label := d.Label(i)
	src := *d.bbox.DeriveIndex(i)
	// Margins up to a quarter of the frame on each side.
	quarter := d.cfg.Size / 4
	if quarter < 1 {
		quarter = 1
	}
	xmin := src.Intn(quarter)
	ymin := src.Intn(quarter)
	xmax := d.cfg.Size - 1 - src.Intn(quarter)
	ymax := d.cfg.Size - 1 - src.Intn(quarter)
	return Annotation{
		Folder:   "val",
		Filename: d.FileName(i),
		Size:     ImgSize{Width: d.cfg.Size, Height: d.cfg.Size, Depth: d.cfg.Channels},
		Objects: []Object{{
			Name:   d.synsets[label].WNID,
			BndBox: BndBox{XMin: xmin, YMin: ymin, XMax: xmax, YMax: ymax},
		}},
	}
}

// MarshalAnnotation renders the record as ILSVRC-style XML.
func MarshalAnnotation(a Annotation) ([]byte, error) {
	return xml.MarshalIndent(a, "", "\t")
}

// ParseAnnotation decodes an annotation XML document.
func ParseAnnotation(data []byte) (Annotation, error) {
	var a Annotation
	if err := xml.Unmarshal(data, &a); err != nil {
		return Annotation{}, fmt.Errorf("imagenet: bad annotation: %w", err)
	}
	if len(a.Objects) == 0 {
		return Annotation{}, fmt.Errorf("imagenet: annotation %q has no objects", a.Filename)
	}
	return a, nil
}

// LabelFromAnnotation resolves the annotation's WNID back to a class
// index against the dataset's synset table — the paper's §IV-B label
// extraction step. It returns an error for unknown WNIDs.
func (d *Dataset) LabelFromAnnotation(a Annotation) (int, error) {
	if len(a.Objects) == 0 {
		return 0, fmt.Errorf("imagenet: annotation %q has no objects", a.Filename)
	}
	wnid := a.Objects[0].Name
	for c, s := range d.synsets {
		if s.WNID == wnid {
			return c, nil
		}
	}
	return 0, fmt.Errorf("imagenet: unknown WNID %q", wnid)
}
