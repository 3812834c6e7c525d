// Command make-dataset materializes a slice of the synthetic ILSVRC
// validation set to disk: one .ppm image plus one ILSVRC-style .xml
// bounding-box annotation per sample. ncsw-classify -folder loads the
// output folder (repro.LoadFolder) into its session's
// SessionConfig.Items: the file-based ImageFolder source of the NCSw
// class diagram (Fig. 3).
//
// Example:
//
//	make-dataset -out ./val-data -n 50
//	ncsw-classify -target vpu -devices 2 -folder ./val-data
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("make-dataset: ")

	out := flag.String("out", "val-data", "output directory")
	n := flag.Int("n", 50, "number of validation images to write")
	offset := flag.Int("offset", 0, "first validation image index")
	flag.Parse()

	cfg := repro.DefaultDatasetConfig()
	if *offset+*n > cfg.Images {
		cfg.Images = *offset + *n
	}
	ds, err := repro.NewDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.WriteSampleFolder(ds, *out, *offset, *offset+*n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d images (+annotations) to %s\n", *n, *out)
	fmt.Printf("classify them with: ncsw-classify -target vpu -folder %s\n", *out)
}
