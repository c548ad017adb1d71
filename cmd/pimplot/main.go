// Command pimplot runs the Fig. 8 competitive sweep and the Fig. 11
// collaborative sweep and writes machine-readable CSVs plus
// self-contained SVG bar charts — the reproduction's analogue of the
// paper artifact's plotting scripts.
//
// Usage:
//
//	pimplot -out results/ [-scale 0.25] [-all] [-parallel 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	pimsim "repro"
)

func main() {
	var (
		out      = flag.String("out", "results", "output directory")
		scale    = flag.Float64("scale", 0.25, "workload scale factor")
		all      = flag.Bool("all", false, "sweep all 20 GPU x 9 PIM kernels")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := pimsim.ScaledConfig()
	r := pimsim.NewRunner(cfg, *scale)
	r.Parallel = *parallel

	gpus, pims := pimsim.DefaultGPUKernels(), pimsim.DefaultPIMKernels()
	if *all {
		gpus, pims = pimsim.AllGPUKernels(), pimsim.AllPIMKernels()
	}
	modes := []pimsim.VCMode{pimsim.VC1, pimsim.VC2}

	fmt.Println("running competitive sweep (Fig. 8 data)...")
	sweep, err := r.RunSweep(gpus, pims, pimsim.Policies(), modes)
	if err != nil {
		fatal(err)
	}
	write(*out, "competitive.csv", pimsim.SweepCSV(sweep))
	if data, err := pimsim.SweepJSON(sweep); err == nil {
		write(*out, "competitive.json", string(data))
	} else {
		fatal(err)
	}
	ft := sweep.FairnessThroughput()
	write(*out, "fig8.svg", pimsim.FairnessThroughputBars(ft, modes).SVG())

	fmt.Println("running collaborative sweep (Fig. 11 data)...")
	collab, err := r.CollaborativeSweep(context.Background(), pimsim.Policies(), modes)
	if err != nil {
		fatal(err)
	}
	write(*out, "collaborative.csv", pimsim.CollabCSV(collab))
	write(*out, "fig11.svg", pimsim.CollabBars(collab).SVG())

	fmt.Println("running characterization (Fig. 4 data)...")
	char, err := r.Characterize(context.Background(), gpus, pims)
	if err != nil {
		fatal(err)
	}
	write(*out, "characterization.csv", pimsim.CharacterizationCSV(char))

	fmt.Println("done:", *out)
}

func write(dir, name, content string) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("  wrote", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimplot:", err)
	os.Exit(1)
}
