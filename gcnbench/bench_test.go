package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cbm"
	"repro/internal/clock"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/gnn"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func TestTracedModelBitwise(t *testing.T) {
	adj := synth.SBMGroups(600, 20, 0.8, 1.0, 5)
	csr, err := gnn.NewCSRBackend(adj)
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := gnn.NewCBMBackend(adj, cbm.Options{Alpha: cbmAlpha})
	if err != nil {
		t.Fatal(err)
	}
	g := gnn.NewGCN2(24, 32, 8, 11)
	x := dense.New(adj.Rows, 24)
	xrand.New(3).FillUniform(x.Data)
	for _, backend := range []struct {
		name string
		a    gnn.Adjacency
	}{{"csr", csr}, {"cbm", cb}} {
		for _, threads := range []int{1, 2} {
			want := dense.New(adj.Rows, 8)
			g.InferTo(exec.New(threads), want, backend.a, x)

			got := dense.New(adj.Rows, 8)
			ct := &clientTrace{}
			m := &tracedGCN{g: g, byOut: map[*dense.Matrix]*clientTrace{got: ct}}
			m.InferTo(exec.New(threads), got, backend.a, x)
			if !sameBits(got, want) {
				t.Errorf("%s threads=%d: traced model output differs bitwise from GCN2.InferTo", backend.name, threads)
			}
			// admit + forward + 3 borrows + 3 releases + 2 gemm + 2 agg + relu.
			if len(ct.spans) != 13 {
				t.Errorf("%s threads=%d: recorded %d spans, want 13", backend.name, threads, len(ct.spans))
			}
		}
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, n := range []int{11, 45, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		tl, err := tailOf(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, v := range xs {
			if v > tl.Value {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value %g, want %d", n, beyond, tl.Value, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); tl.Percentile != want || tl.N != n {
			t.Errorf("n=%d: got p%g of %d, want p%g of %d", n, tl.Percentile, tl.N, want, n)
		}
	}
	if n100, _ := tailOf(seq(100)); n100.Value != 90 || n100.Percentile != 90 {
		t.Errorf("n=100: got %g at p%g, want 90 at p90", n100.Value, n100.Percentile)
	}
	if _, err := tailOf(seq(minBeyond)); err == nil {
		t.Errorf("a sample of %d has no tail, want an error", minBeyond)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// One sender; request 0 stalls for 10 ms while requests 1–3 fall due
// behind it. Timed from the due time, each queued request is charged
// the wait the stall imposed on it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := clock.NewFake()
	offsets := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	release := make(chan struct{})
	serve := func(_, i int) (call, ret time.Time, ok bool) {
		call = clk.Now()
		if i == 0 {
			<-release
		}
		return call, clk.Now(), true
	}
	var res openResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = runOpen(clk, offsets, 1, serve)
	}()
	for range offsets[1:] {
		clk.BlockUntil(1) // the generator waits for the next due time
		clk.Advance(time.Millisecond)
	}
	clk.Advance(7 * time.Millisecond)
	close(release)
	wg.Wait()

	want := []float64{10, 9, 8, 7}
	for i, w := range want {
		if res.LatMs[i] != w {
			t.Errorf("request %d: latency %g ms, want %g ms", i, res.LatMs[i], w)
		}
	}
	if res.Attempted != 4 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 4 and 0", res.Attempted, res.Failed)
	}
}

func TestCrossingInterpolatesBetweenRungs(t *testing.T) {
	lower := rungResult{rate: 1000, p99: 10, meets: true}
	upper := rungResult{rate: 1250, p99: 40}
	if got := crossing(lower, upper, 20); got != 1125 {
		t.Errorf("crossing = %g, want 1125 (20 ms is halfway between 10 and 40 ms on a log scale)", got)
	}
	if got := crossing(lower, rungResult{}, 20); got != 1000 {
		t.Errorf("with no missed rung crossing = %g, want the highest rung 1000", got)
	}
}
