package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// workload is one input plus one load shape. README.md says why each
// was chosen and which layer it is meant to stress.
type workload struct {
	name    string
	dataset string // bench.Registry analog
	in      int    // GCN2 input width
	hidden  int
	classes int
	// clients is the closed-loop client count, and the sender count of
	// the open-loop ladder.
	clients int
	engine  gnn.EngineConfig
	// rates is the Poisson arrival ladder in req/s the traced run
	// climbs to find the highest sustained rate; nil for none.
	rates []float64
	// limitMs is the ladder's latency limit on p99.
	limitMs float64
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

var workloads = []workload{
	{
		name: "transform-heavy", dataset: "collab", in: 128, hidden: 128, classes: 16,
		clients: 1, engine: gnn.EngineConfig{MaxInFlight: 1, Threads: 2},
		setupReps: 3,
	},
	{
		name: "aggregation-heavy", dataset: "ogbn-proteins", in: 16, hidden: 16, classes: 16,
		clients: 1, engine: gnn.EngineConfig{MaxInFlight: 1, Threads: 2},
		setupReps: 3,
	},
	{
		name: "small-graph", dataset: "cora", in: 16, hidden: 16, classes: 4,
		clients: 1, engine: gnn.EngineConfig{MaxInFlight: 1, Threads: 2},
		rates: []float64{250, 500, 750, 1000, 1250}, limitMs: 20,
		setupReps: 41,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// threads is the per-request thread budget the engine will use.
func (w workload) threads() int {
	if w.engine.Threads > 0 {
		return w.engine.Threads
	}
	return 1
}

// inputPool is how many distinct feature matrices the requests cycle
// through.
const inputPool = 2

// cbmAlpha is the paper's default pruning threshold.
const cbmAlpha = 4

// inputs are the generated graph, features and model of one seed. None
// of their generation is timed.
type inputs struct {
	ds    bench.Dataset
	adj   *sparse.CSR
	xs    []*dense.Matrix
	model *gnn.GCN2
}

func generate(w workload, seed uint64) (*inputs, error) {
	ds, err := bench.Get(w.dataset)
	if err != nil {
		return nil, err
	}
	in := &inputs{ds: ds, adj: ds.Generate(seed), model: gnn.NewGCN2(w.in, w.hidden, w.classes, seed+1)}
	rng := xrand.New(seed + 2)
	for i := 0; i < inputPool; i++ {
		x := dense.New(in.adj.Rows, w.in)
		rng.FillUniform(x.Data)
		in.xs = append(in.xs, x)
	}
	return in, nil
}

// serving is the set-up the engine serves from.
type serving struct {
	backend *gnn.CBMAdjacency
	engine  *gnn.Engine
	// setupS holds each repetition's set-up time; stats and normalizeS
	// the build breakdown of each.
	setupS     []float64
	stats      []cbm.BuildStats
	normalizeS []float64
}

// setUp builds the served state w.setupReps times and keeps the last:
// normalize + CBM compress (gnn.NewCBMBackend) + gnn.NewEngine + one
// warm-up request per slot. The normalization is also timed on its own,
// outside the set-up time, for the per-layer breakdown.
func setUp(w workload, in *inputs) (*serving, error) {
	s := &serving{}
	warmOut := dense.New(in.adj.Rows, w.classes)
	for r := 0; r < w.setupReps; r++ {
		s.backend, s.engine = nil, nil
		runtime.GC()
		t0 := time.Now()
		if _, err := graph.NewNormalizedAdjacency(in.adj); err != nil {
			return nil, err
		}
		s.normalizeS = append(s.normalizeS, time.Since(t0).Seconds())

		runtime.GC()
		t0 = time.Now()
		backend, stats, err := gnn.NewCBMBackend(in.adj, cbm.Options{Alpha: cbmAlpha})
		if err != nil {
			return nil, err
		}
		e := gnn.NewEngine(in.model, backend, w.engine)
		for i := 0; i < e.Slots(); i++ {
			e.InferTo(warmOut, in.xs[i%len(in.xs)])
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		s.backend, s.engine = backend, e
		s.stats = append(s.stats, stats)
	}
	return s, nil
}

// references computes each input's expected output with the sequential
// GCN2.InferTo on the served backend at the engine's thread count. The
// engine's contract is that its output equals this path bitwise.
func references(w workload, in *inputs, a gnn.Adjacency) []*dense.Matrix {
	refs := make([]*dense.Matrix, len(in.xs))
	for i, x := range in.xs {
		refs[i] = dense.New(in.adj.Rows, w.classes)
		in.model.InferTo(exec.New(w.threads()), refs[i], a, x)
	}
	return refs
}

// checkOracle runs the forward pass on x one public call at a time and
// checks each product against the float64 CSR oracle, then checks that
// the step-by-step result is bitwise the reference.
func checkOracle(w workload, in *inputs, a gnn.Adjacency, x, ref *dense.Matrix) error {
	na, err := graph.NewNormalizedAdjacency(in.adj)
	if err != nil {
		return err
	}
	ahat := na.Materialize()
	aggTol := oracle.KindTolerance(cbm.KindDAD)
	ctx := exec.New(w.threads())
	n := in.adj.Rows
	cur := x
	var out *dense.Matrix
	for l, conv := range []*gnn.GCNConv{in.model.L0, in.model.L1} {
		xw := dense.New(n, conv.Lin.Out)
		conv.Lin.ForwardTo(ctx, xw, cur)
		if d := oracle.Compare(xw, oracle.CSRProduct(sparse.FromDense(cur), conv.Lin.W), oracle.Loose()); d != nil {
			return fmt.Errorf("layer %d transform disagrees with the oracle: %v", l, d)
		}
		out = dense.New(n, conv.Lin.Out)
		a.MulToCtx(ctx, out, xw)
		if d := oracle.Compare(out, oracle.CSRProduct(ahat, xw), aggTol); d != nil {
			return fmt.Errorf("layer %d aggregation disagrees with the oracle: %v", l, d)
		}
		if l == 0 {
			out.ReLU()
		}
		cur = out
	}
	if !sameBits(out, ref) {
		return fmt.Errorf("step-by-step forward pass differs bitwise from GCN2.InferTo")
	}
	return nil
}

// sameBits reports whether a and b hold bitwise-identical values.
func sameBits(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// poison overwrites m with NaN, so a request that leaves its output
// untouched cannot pass the output check.
func poison(m *dense.Matrix) {
	nan := float32(math.NaN())
	for i := range m.Data {
		m.Data[i] = nan
	}
}

// infer serves one request, reporting a panic as a failure.
func infer(e *gnn.Engine, out, x *dense.Matrix) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	e.InferTo(out, x)
	return true
}

// engineServer serves requests through e, each client writing its own
// preallocated output buffer, and checks every output bitwise against
// its reference. With traces set, request and return spans are
// recorded for the traced model's client traces.
func engineServer(e *gnn.Engine, outs, xs, refs []*dense.Matrix, traces []*clientTrace) serveFunc {
	return func(c, i int) (call, ret time.Time, ok bool) {
		out, k := outs[c], i%len(xs)
		poison(out)
		var ct *clientTrace
		if traces != nil {
			ct = traces[c]
			ct.req = int64(c)<<32 | int64(i)
		}
		call = time.Now()
		if ct != nil {
			ct.call = call
		}
		ok = infer(e, out, xs[k])
		ret = time.Now()
		if ct != nil {
			ct.add(spanReturn, -1, ct.exit, ret)
			ct.add(spanRequest, -1, call, ret)
		}
		return call, ret, ok && sameBits(out, refs[k])
	}
}
