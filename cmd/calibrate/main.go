// Command calibrate checks every registered dataset analog against
// the paper's published structural targets: node count, average
// degree, clustering coefficient, and the α = 0 / α = 32 compression
// ratios — the tool used to tune the generator parameters in
// internal/bench/registry.go; re-run it after touching any generator.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/graph"
	"repro/internal/obs"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed")
	threads := flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	metrics := flag.Bool("metrics", false, "dump the internal/obs metrics snapshot as JSON to stderr on exit")
	flag.Parse()

	structuralCheck(*seed, *threads)
	if *metrics {
		if err := obs.WriteJSON(os.Stderr); err != nil {
			fail("metrics: %v", err)
		}
	}
}

// structuralCheck prints each analog next to its paper targets.
func structuralCheck(seed uint64, threads int) {
	for _, d := range bench.Registry {
		start := time.Now()
		a := d.Generate(seed)
		gen := time.Since(start)
		st := graph.Summarize(a)
		cc := graph.AverageClusteringCoefficient(a, threads)

		start = time.Now()
		b, err := cbm.NewBuilder(a, cbm.Options{Threads: threads})
		if err != nil {
			panic(err)
		}
		m0, s0, err := b.Compress(0, false)
		if err != nil {
			panic(err)
		}
		build := time.Since(start)
		m32, _, err := b.Compress(32, false)
		if err != nil {
			panic(err)
		}
		r0 := float64(a.FootprintBytes()) / float64(m0.FootprintBytes())
		r32 := float64(a.FootprintBytes()) / float64(m32.FootprintBytes())
		outf("%-18s n=%7d deg=%6.1f (paper %6.1f) cc=%.2f (paper %.2f) "+
			"ratio0=%5.2f (paper %5.2f) ratio32=%5.2f (paper %5.2f) "+
			"cand=%d kids0=%d build=%v gen=%v\n",
			d.Name, st.Nodes, st.AverageDegree, d.Paper.AvgDegree,
			cc, d.Paper.ClusteringCoef,
			r0, d.Paper.RatioAlpha0, r32, d.Paper.RatioAlpha32,
			s0.CandidateEdges, s0.VirtualKids, build, gen)
	}
}

func fail(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, "calibrate: "+format+"\n", args...)
	os.Exit(1)
}

// outf writes a formatted report line to stdout and exits non-zero if
// the write fails (e.g. a closed pipe), so calibration scripts cannot
// mistake truncated output for a clean run.
func outf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "calibrate: write:", err)
		os.Exit(1)
	}
}
