// Command ncsw-vet runs the repository's determinism and API-hygiene
// analyzer suite (internal/lint) over the packages matched by its
// arguments — `go run ./cmd/ncsw-vet ./...` checks the whole module —
// and exits non-zero when any finding survives suppression.
//
// The six analyzers and the //ncsw:allow directive are documented in
// DESIGN.md §8; -help lists them.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ncsw-vet [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the ncsw determinism & API-hygiene analyzers:\n\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nSuppress one finding with `//ncsw:allow <analyzer> <reason>`\n")
		fmt.Fprintf(os.Stderr, "on the flagged line or the line above it; the reason is mandatory.\n")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := lint.Vet(os.Stdout, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncsw-vet: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "ncsw-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}
