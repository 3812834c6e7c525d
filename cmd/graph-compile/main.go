// Command graph-compile compiles a network into an NCS graph blob and
// prints its layer summary — the role mvNCCompile plays in the NCSDK.
// With -profile it additionally prints the simulated per-layer
// execution costs on the Myriad 2 (the mvNCProfile report).
//
// Examples:
//
//	graph-compile -net googlenet -o googlenet.graph
//	graph-compile -net micro -profile
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/graphfile"
	"repro/internal/rng"
	"repro/internal/vpu"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graph-compile: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, compiles the chosen network and writes the report
// to stdout. The default seed is 42, the one sessions, examples and
// pipeline.Config.NetSeed use, so a -net googlenet blob with the
// default seed is the one a default GoogLeNet session compiles. A
// -net micro blob is not: micro sessions calibrate the classifier
// against the dataset before compiling.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graph-compile", flag.ContinueOnError)
	netName := fs.String("net", "googlenet", "network to compile: googlenet or micro")
	out := fs.String("o", "", "write the compiled blob to this file")
	profile := fs.Bool("profile", false, "print the simulated per-layer Myriad 2 cost profile")
	seed := fs.Uint64("seed", 42, "weight seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (choose the network with -net)", fs.Arg(0))
	}

	var net *repro.Graph
	switch *netName {
	case "googlenet":
		net = repro.NewGoogLeNet(repro.Seed(*seed))
	case "micro":
		net = repro.NewMicroGoogLeNet(repro.DefaultMicroConfig(), repro.Seed(*seed))
	default:
		return fmt.Errorf("unknown network %q (want googlenet or micro)", *netName)
	}

	fmt.Fprint(stdout, net.Summary())

	blob, err := repro.CompileGraph(net)
	if err != nil {
		return err
	}
	_, info, err := graphfile.Parse(blob)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ncompiled blob: %d bytes (%.2f MB), %d layers, %.3f GMACs, %.2f M params (FP16)\n",
		info.Bytes, float64(info.Bytes)/1e6, info.Layers,
		float64(info.MACs)/1e9, float64(info.Params)/1e6)

	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if *profile {
		engine, err := vpu.NewEngine(vpu.DefaultConfig(), net, rng.New(*seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nMyriad 2 per-layer profile (12 SHAVEs @ 600 MHz):\n")
		fmt.Fprintf(stdout, "%-26s %-9s %12s %12s %8s\n", "layer", "kind", "compute", "memory", "bound")
		for _, lc := range engine.LayerProfile() {
			fmt.Fprintf(stdout, "%-26s %-9s %12v %12v %8s\n", lc.Name, lc.Kind, lc.Compute, lc.Memory, lc.Bound)
		}
		fmt.Fprintf(stdout, "total on-device execution: %v per inference\n", engine.BaseExecDuration())
	}
	return nil
}
