package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cbm"
	"repro/internal/clock"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/kernels"
	"repro/internal/obs"
)

const mib = 1 << 20

// runner is one run's state after set-up.
type runner struct {
	w    workload
	seed uint64
	dur  time.Duration
	in   *inputs
	s    *serving
	refs []*dense.Matrix
}

// phaseResult is one load phase: a closed loop, or one open-loop rung.
type phaseResult struct {
	latMs     []float64 // closed: call to return; open: due time to completion
	lateMs    []float64 // closed: gap between a client's requests; open: generator lateness
	backlog   int       // open: most requests sent but not completed at a send
	grows     bool      // open: the backlog grew over the phase
	attempted int
	failed    int
	elapsed   time.Duration
}

func (p phaseResult) throughput() float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// closed runs the workload's closed loop against serve for dur.
func (b *runner) closed(serve serveFunc, dur time.Duration) phaseResult {
	r := runClosed(b.w.clients, dur, serve)
	return phaseResult{latMs: r.LatMs, lateMs: r.GapMs, attempted: r.Attempted, failed: r.Failed, elapsed: r.Elapsed}
}

// open runs one open-loop rung at rate req/s against serve for dur.
func (b *runner) open(serve serveFunc, dur time.Duration, rate float64, salt uint64) phaseResult {
	offs := poissonSchedule(rate, dur, b.seed*1_000_003+salt)
	r := runOpen(clock.System(), offs, b.w.clients, serve)
	p := phaseResult{latMs: r.LatMs, lateMs: r.LateMs, attempted: r.Attempted, failed: r.Failed, elapsed: r.Elapsed}
	for _, q := range r.Backlog {
		p.backlog = max(p.backlog, q)
	}
	p.grows = backlogGrows(r.Backlog, b.w.clients)
	return p
}

// outs returns one preallocated output buffer per client.
func (b *runner) outs() []*dense.Matrix {
	outs := make([]*dense.Matrix, b.w.clients)
	for i := range outs {
		outs[i] = dense.New(b.in.adj.Rows, b.w.classes)
	}
	return outs
}

// windows is how many consecutive windows of equal sample count a
// phase with at least minWindow samples per window is cut into. Its
// p50, p99 and tail are then the medians of the per-window values, so
// a burst of interference from other tenants of a shared machine moves
// one window, not the result, while a slowdown present throughout
// moves every window.
const (
	windows   = 16
	minWindow = 100
)

// latStats summarizes a phase's latencies.
type latStats struct {
	p50, p99 float64
	tail     tailStat // with windows, Value is the median of the window tails
}

// summarize returns a phase's latency statistics: medians over windows
// when the phase has enough samples, else over the whole phase.
func summarize(lat []float64) (latStats, error) {
	n := len(lat) / windows
	if n < minWindow {
		t, err := tailOf(lat)
		return latStats{p50: median(lat), p99: percentile(lat, 99), tail: t}, err
	}
	var p50s, p99s, tails []float64
	var st latStats
	for k := 0; k < windows; k++ {
		win := lat[k*n : (k+1)*n]
		t, err := tailOf(win)
		if err != nil {
			return st, err
		}
		st.tail = t
		p50s = append(p50s, median(win))
		p99s = append(p99s, percentile(win, 99))
		tails = append(tails, t.Value)
	}
	st.p50, st.p99, st.tail.Value = median(p50s), median(p99s), median(tails)
	return st, nil
}

// rungResult is one open-loop rung against the latency limit.
type rungResult struct {
	rate, p99 float64
	meets     bool
}

// crossing estimates the arrival rate at which the p99 latency reaches
// limitMs: log-linear interpolation between the highest rung below the
// first miss (lower) and that miss (upper). With no miss it is the
// highest rung run.
func crossing(lower, upper rungResult, limitMs float64) float64 {
	if upper.rate == 0 || upper.p99 <= limitMs || lower.p99 >= limitMs {
		return lower.rate
	}
	f := math.Log(limitMs/lower.p99) / math.Log(upper.p99/lower.p99)
	return lower.rate + f*(upper.rate-lower.rate)
}

// endToEnd measures the end-to-end metrics, untraced.
func (b *runner) endToEnd() (report, error) {
	var rep report
	w := b.w
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heap := float64(mem.HeapInuse) / mib

	p := b.closed(engineServer(b.s.engine, b.outs(), b.in.xs, b.refs, nil), b.dur)
	rep.attempted, rep.failed = p.attempted, p.failed
	st, err := summarize(p.latMs)
	if err != nil {
		return rep, err
	}
	rep.linef("closed loop, %d client(s), %.1fs: sent %d, succeeded %d, failed %d",
		w.clients, p.elapsed.Seconds(), p.attempted, p.attempted-p.failed, p.failed)
	rep.linef("req_tail_ms is the %v", st.tail)
	rep.add("setup_s", "s", median(b.s.setupS))
	rep.add("req_p50_ms", "ms", st.p50)
	rep.add("req_tail_ms", "ms", st.tail.Value)
	rep.add("throughput_rps", "req/s", p.throughput())
	rep.add("footprint_mib", "MiB", float64(b.s.backend.FootprintBytes())/mib)
	rep.add("heap_inuse_mib", "MiB", heap)
	return rep, nil
}

// ladder climbs the workload's open-loop rates, dur/len(rates) each,
// and stops after the first rung that misses the latency limit. It
// returns the rate at which p99 crosses the limit and the first rung's
// phase.
func (b *runner) ladder(serve serveFunc, rep *report) (maxRate float64, first phaseResult, err error) {
	w := b.w
	rung := b.dur / time.Duration(len(w.rates))
	var lower, upper rungResult
	for k, rate := range w.rates {
		p := b.open(serve, rung, rate, uint64(k))
		if k == 0 {
			first = p
		}
		st, err := summarize(p.latMs)
		if err != nil {
			return 0, first, fmt.Errorf("rung %g req/s: %w", rate, err)
		}
		// A rung the engine did not keep up with leaves a backlog that
		// takes longer than the limit to drain after the last arrival.
		drained := p.elapsed <= rung+time.Duration(w.limitMs*float64(time.Millisecond))
		r := rungResult{rate: rate, p99: st.p99}
		r.meets = p.failed == 0 && r.p99 <= w.limitMs && !p.grows && drained
		rep.attempted += p.attempted
		rep.failed += p.failed
		rep.linef("open loop %5g req/s, %.1fs: sent %d, succeeded %d, failed %d; p50 %.3f ms, p99 %.3f ms, tail %.3f ms (%v); max backlog %d, growing %t, drained %t, meets the %g ms p99 limit: %t",
			rate, rung.Seconds(), p.attempted, p.attempted-p.failed, p.failed, st.p50, st.p99, st.tail.Value, st.tail, p.backlog, p.grows, drained, w.limitMs, r.meets)
		if !r.meets {
			upper = r
			break
		}
		lower = r
	}
	if lower.rate == 0 {
		return 0, first, fmt.Errorf("the lowest rung of %v req/s misses the %g ms p99 limit", w.rates, w.limitMs)
	}
	rep.linef("gnn.max_rate_rps: p99 crosses %g ms between %g and %g req/s (0 = never missed)", w.limitMs, lower.rate, upper.rate)
	return crossing(lower, upper, w.limitMs), first, nil
}

// traced measures the per-layer metrics: an untraced phase, a traced
// phase through tracedGCN, standalone kernels on the layer-0 operand,
// and the same load through a CSR-backend engine.
func (b *runner) traced(traceDir, fp string) (report, error) {
	var rep report
	w, in, s := b.w, b.in, b.s
	outs := b.outs()

	// Untraced phase: the baseline for trace.overhead and the
	// allocation count of the serving path.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	serve := engineServer(s.engine, outs, in.xs, b.refs, nil)
	plain := b.closed(serve, b.dur)
	runtime.ReadMemStats(&m1)
	rep.attempted, rep.failed = plain.attempted, plain.failed
	allocsPerReq := float64(m1.Mallocs-m0.Mallocs) / float64(plain.attempted)
	plainP50 := median(plain.latMs)

	// Traced phase: same backend and load, the model wrapped in spans.
	traces := make([]*clientTrace, w.clients)
	model := &tracedGCN{g: in.model, byOut: map[*dense.Matrix]*clientTrace{}}
	for c := range traces {
		traces[c] = &clientTrace{spans: make([]span, 0, 16*(plain.attempted/w.clients+64))}
		model.byOut[outs[c]] = traces[c]
	}
	te := gnn.NewEngine(model, s.backend, w.engine)
	warm := dense.New(in.adj.Rows, w.classes)
	for i := 0; i < te.Slots(); i++ {
		te.InferTo(warm, in.xs[i%len(in.xs)])
	}
	flushes0, cols0 := obs.CounterValue(obs.CounterBatchFlushes), obs.CounterValue(obs.CounterBatchCols)
	epoch := time.Now()
	tp := b.closed(engineServer(te, outs, in.xs, b.refs, traces), b.dur)
	flushes := obs.CounterValue(obs.CounterBatchFlushes) - flushes0
	cols := obs.CounterValue(obs.CounterBatchCols) - cols0
	tracedP50 := median(tp.latMs)
	path := filepath.Join(traceDir, w.name+".jsonl")
	header := fmt.Sprintf(`{"workload":%q,"fingerprint":%q}`, w.name, fp)
	if err := writeSpans(path, epoch, traces, header); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}

	bd := breakdowns(traces)
	if len(bd) <= minBeyond {
		return rep, fmt.Errorf("only %d traced requests", len(bd))
	}
	col := func(f func(reqBreakdown) float64) []float64 {
		xs := make([]float64, len(bd))
		for i, r := range bd {
			xs[i] = f(r)
		}
		return xs
	}
	var leaves, whole float64
	for _, r := range bd {
		leaves += r.leaves()
		whole += r.request
	}
	closure := leaves / whole
	admitTail, err := tailOf(col(func(r reqBreakdown) float64 { return r.admit }))
	if err != nil {
		return rep, err
	}
	gemm := median(col(func(r reqBreakdown) float64 { return r.gemm[0] + r.gemm[1] }))
	flops := 2 * float64(in.adj.Rows) * float64(w.in*w.hidden+w.hidden*w.classes)

	// Standalone kernels on the layer-0 aggregation operand, interleaved.
	csr, err := gnn.NewCSRBackend(in.adj)
	if err != nil {
		return rep, err
	}
	ctx := exec.New(w.threads())
	xw := dense.New(in.adj.Rows, w.hidden)
	in.model.L0.Lin.ForwardTo(ctx, xw, in.xs[0])
	dst := dense.New(in.adj.Rows, w.hidden)
	var deltaMs, csrMs, cbmMs, updateMs []float64
	timeIt := func(f func()) float64 {
		t0 := time.Now()
		f()
		return ms(time.Since(t0))
	}
	delta := s.backend.M.Delta()
	// The two-stage plan run through a recorder, so its update stage
	// (Eq. 6) is timed by the program's own stage timer whichever plan
	// the selector picks.
	rec := obs.NewRecorder()
	recCtx := exec.NewWithSink(w.threads(), rec)
	for r := 0; r < 9; r++ {
		deltaMs = append(deltaMs, timeIt(func() { kernels.SpMMTo(dst, delta, xw, w.threads()) }))
		csrMs = append(csrMs, timeIt(func() { csr.MulToCtx(ctx, dst, xw) }))
		cbmMs = append(cbmMs, timeIt(func() { s.backend.MulToCtx(ctx, dst, xw) }))
		_, before := rec.StageTotals(obs.StageUpdate)
		s.backend.M.MulToStrategyCtx(recCtx, dst, xw, cbm.StrategyBranch, 0)
		_, after := rec.StageTotals(obs.StageUpdate)
		updateMs = append(updateMs, ms(time.Duration(after-before)))
	}
	deltaMed, csrMed, cbmMed := median(deltaMs), median(csrMs), median(cbmMs)

	// The same load through a CSR-backend engine, alternated with the
	// CBM engine (ABBA), closed loop at the workload's client count.
	csrRefs := references(w, in, csr)
	ce := gnn.NewEngine(in.model, csr, w.engine)
	for i := 0; i < ce.Slots(); i++ {
		ce.InferTo(warm, in.xs[i%len(in.xs)])
	}
	var cbmLat, csrLat []float64
	cmpAttempted, cmpFailed := 0, 0
	for _, useCSR := range []bool{false, true, true, false} {
		srv := engineServer(s.engine, outs, in.xs, b.refs, nil)
		if useCSR {
			srv = engineServer(ce, outs, in.xs, csrRefs, nil)
		}
		r := b.closed(srv, b.dur/8)
		cmpAttempted += r.attempted
		cmpFailed += r.failed
		if useCSR {
			csrLat = append(csrLat, r.latMs...)
		} else {
			cbmLat = append(cbmLat, r.latMs...)
		}
	}
	speedup := median(csrLat) / median(cbmLat)

	rep.attempted += tp.attempted + cmpAttempted
	rep.failed += tp.failed + cmpFailed

	// The highest sustained rate, and how well the load generator kept
	// its schedule. A workload with an arrival ladder climbs it; in a
	// closed loop clients equal slots, so the engine runs saturated and
	// its completion rate is the highest it sustains.
	maxRate, gen := plain.throughput(), plain
	if w.rates != nil {
		if maxRate, gen, err = b.ladder(serve, &rep); err != nil {
			return rep, err
		}
	}
	late, err := tailOf(gen.lateMs)
	if err != nil {
		return rep, fmt.Errorf("generator lateness: %w", err)
	}
	// Build-stage times are medians over the set-up repetitions.
	build := func(f func(cbm.BuildStats) time.Duration) float64 {
		xs := make([]float64, len(s.stats))
		for i, st := range s.stats {
			xs[i] = f(st).Seconds()
		}
		return median(xs)
	}
	plans := fmt.Sprintf("l0=%v l1=%v", s.backend.M.PlanFor(w.threads(), w.hidden), s.backend.M.PlanFor(w.threads(), w.classes))
	rep.linef("untraced closed loop: sent %d, succeeded %d, failed %d; p50 %.3f ms", plain.attempted, plain.attempted-plain.failed, plain.failed, plainP50)
	rep.linef("traced closed loop: sent %d, succeeded %d, failed %d; p50 %.3f ms; %d requests traced", tp.attempted, tp.attempted-tp.failed, tp.failed, tracedP50, len(bd))
	rep.linef("CSR comparison (closed loop, %d client(s), ABBA): sent %d, failed %d; CBM p50 %.3f ms, CSR p50 %.3f ms; paper GCN speedup: %.2f× (1 core), %.2f× (16 cores)",
		w.clients, cmpAttempted, cmpFailed, median(cbmLat), median(csrLat), in.ds.Paper.SpeedupGCNSeq, in.ds.Paper.SpeedupGCNPar)
	rep.linef("cbm plans: %s", plans)
	rep.linef("spans written to %s", path)
	rep.linef("gnn.admit_wait_ms.tail is the %v; loadgen.late_ms.tail is the %v", admitTail, late)

	rep.add("gnn.admit_wait_ms.p50", "ms", median(col(func(r reqBreakdown) float64 { return r.admit })))
	rep.add("gnn.admit_wait_ms.tail", "ms", admitTail.Value)
	rep.add("gnn.forward_ms.p50", "ms", median(col(func(r reqBreakdown) float64 { return r.forward })))
	rep.add("gnn.batch_flushes", "count", float64(flushes))
	batchCols := 0.0
	if flushes > 0 {
		batchCols = float64(cols) / float64(flushes)
	}
	rep.add("gnn.batch_cols_mean", "count", batchCols)
	rep.add("gnn.speedup_vs_csr", "x", speedup)
	rep.add("gnn.max_rate_rps", "req/s", maxRate)
	rep.add("dense.gemm_ms.l0", "ms", median(col(func(r reqBreakdown) float64 { return r.gemm[0] })))
	rep.add("dense.gemm_ms.l1", "ms", median(col(func(r reqBreakdown) float64 { return r.gemm[1] })))
	rep.add("dense.gemm_gflops", "GFLOP/s", flops/gemm/1e6)
	rep.add("dense.relu_ms", "ms", median(col(func(r reqBreakdown) float64 { return r.relu })))
	rep.add("cbm.agg_ms.l0", "ms", median(col(func(r reqBreakdown) float64 { return r.agg[0] })))
	rep.add("cbm.agg_ms.l1", "ms", median(col(func(r reqBreakdown) float64 { return r.agg[1] })))
	rep.add("cbm.update_ms", "ms", median(updateMs))
	rep.add("cbm.compression_ratio", "x", float64(csr.FootprintBytes())/float64(s.backend.FootprintBytes()))
	rep.add("cbm.delta_nnz", "count", float64(s.backend.M.NumDeltas()))
	rep.add("cbm.branches", "count", float64(s.backend.M.NumBranches()))
	rep.add("cbm.build_candidates_s", "s", build(func(st cbm.BuildStats) time.Duration { return st.CandidateTime }))
	rep.add("cbm.build_tree_s", "s", build(func(st cbm.BuildStats) time.Duration { return st.TreeTime }))
	rep.add("cbm.build_delta_s", "s", build(func(st cbm.BuildStats) time.Duration { return st.DeltaTime }))
	rep.add("graph.normalize_s", "s", median(s.normalizeS))
	rep.add("kernels.delta_spmm_ms", "ms", deltaMed)
	rep.add("kernels.csr_spmm_ms", "ms", csrMed)
	rep.add("kernels.agg_speedup_vs_csr", "x", csrMed/cbmMed)
	rep.add("exec.allocs_per_req", "count", allocsPerReq)
	rep.add("exec.scratch_ms", "ms", median(col(func(r reqBreakdown) float64 { return r.scratch })))
	rep.add("trace.closure", "1", closure)
	rep.add("trace.overhead_ms", "ms", tracedP50-plainP50)
	rep.add("loadgen.late_ms.tail", "ms", late.Value)
	rep.add("loadgen.backlog", "count", float64(gen.backlog))
	if closure < 0.95 {
		rep.printLines()
		return rep, fmt.Errorf("trace does not close: layer spans cover %.3f of request time, need ≥ 0.95", closure)
	}
	return rep, nil
}
