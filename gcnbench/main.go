// Command gcnbench is the repository benchmark: full-graph two-layer
// GCN inference (gnn.GCN2 over the default CBM backend) served by
// gnn.Engine under closed- and open-loop load. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it serves the same
// requests through a traced copy of the model and reports a per-layer
// breakdown. See README.md for the workloads and metrics.
//
// Run it from the repository root through its build script:
//
//	bash gcnbench/run.sh --workload transform-heavy --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name (transform-heavy, aggregation-heavy, small-graph)")
		seed     = flag.Uint64("seed", 1, "seed for the generated graph, features and weights")
		seconds  = flag.Int("seconds", 10, "measured seconds per load phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *traceDir); err != nil {
		fmt.Fprintln(os.Stderr, "gcnbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, traceDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1, got %d and %d", seconds, trace)
	}
	if err := checkHarness(w); err != nil {
		return err
	}
	fp := fingerprint(seed)
	fmt.Println("fingerprint:", fp)

	in, err := generate(w, seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %s analog, %d nodes, %d nnz, GCN2 %d→%d→%d, %d client(s), engine MaxInFlight=%d Threads=%d\n",
		w.name, in.ds.Name, in.adj.Rows, in.adj.NNZ(), w.in, w.hidden, w.classes, w.clients, w.engine.MaxInFlight, w.engine.Threads)
	s, err := setUp(w, in)
	if err != nil {
		return err
	}
	refs := references(w, in, s.backend)
	if err := checkOracle(w, in, s.backend, in.xs[0], refs[0]); err != nil {
		return fmt.Errorf("oracle check: %w", err)
	}
	fmt.Println("oracle check: ok (each product within the float64 CSR oracle's tolerance; step-by-step output bitwise equal to GCN2.InferTo)")

	b := &runner{w: w, seed: seed, dur: time.Duration(seconds) * time.Second, in: in, s: s, refs: refs}
	var rep report
	if trace == 0 {
		rep, err = b.endToEnd()
	} else {
		rep, err = b.traced(traceDir, fp)
	}
	if err != nil {
		return err
	}
	return rep.print()
}

// checkHarness refuses configurations whose numbers would not be
// honest: more client goroutines or per-request threads than
// GOMAXPROCS, or a process-wide plan override.
func checkHarness(w workload) error {
	procs := runtime.GOMAXPROCS(0)
	if w.clients > procs {
		return fmt.Errorf("workload %s needs %d client goroutines but GOMAXPROCS is %d", w.name, w.clients, procs)
	}
	if w.engine.Threads > procs {
		return fmt.Errorf("workload %s needs %d threads per request but GOMAXPROCS is %d", w.name, w.engine.Threads, procs)
	}
	if v, ok := os.LookupEnv("CBM_PLAN"); ok {
		return fmt.Errorf("CBM_PLAN=%q is set; the benchmark measures the default plan selection, unset it", v)
	}
	return nil
}

// fingerprint describes the machine and run for the record.
func fingerprint(seed uint64) string {
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d cpu=[%s] go=%s %s/%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.Join(cpuFeatures(), ","),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, seed)
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// report is one run's result: the human-readable lines printed first,
// then the JSON result line. The run is correct when no operation
// failed; a failed oracle check ends the run before any report.
type report struct {
	lines     []string
	metrics   []metric
	attempted int
	failed    int
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// printLines prints the human-readable lines and a metric table.
func (r *report) printLines() {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, m := range r.metrics {
		fmt.Printf("  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// print prints the human-readable lines, then the JSON result line.
func (r *report) print() error {
	r.printLines()
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		fmt.Fprintf(&sb, `%s: {"value": %s, "unit": %s}`, name, strconv.FormatFloat(m.value, 'g', -1, 64), unit)
	}
	sb.WriteString("}}")
	fmt.Println(sb.String())
	return nil
}
