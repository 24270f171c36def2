// Concurrency stress harness: hammers the parallel kernels and the
// parallel runtime primitives with randomized thread counts and grain
// sizes while several multiplications run concurrently against the
// same (shared, read-only) compressed matrix. Results are compared
// bitwise against precomputed sequential references, so both data
// races (surfaced by `go test -race`) and scheduling-dependent
// nondeterminism are caught. The harness itself uses only its local
// RNG and is deterministic for a fixed seed.

package oracle

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// StressConfig controls a stress run.
type StressConfig struct {
	Iters      int    // randomized rounds; < 1 selects 8
	Seed       uint64 // RNG seed for thread counts / grain sizes
	MaxThreads int    // upper bound on randomized thread counts; < 2 selects 16
}

func (c StressConfig) normalized() StressConfig {
	if c.Iters < 1 {
		c.Iters = 8
	}
	if c.MaxThreads < 2 {
		c.MaxThreads = 16
	}
	return c
}

// StressMatrix runs cfg.Iters rounds in which MulParallel, the forced
// two-stage and CSR plans, and MulVecParallel execute concurrently on
// m with independently randomized thread counts, each checked bitwise
// against its own sequential reference: the forced plans against
// themselves at one thread, MulParallel against the pinned plan's
// reference, and MulVecParallel against a one-column MulTo. The first
// discrepancy is returned.
func StressMatrix(m *cbm.Matrix, b *dense.Matrix, v []float32, cfg StressConfig) error {
	cfg = cfg.normalized()
	rng := xrand.New(cfg.Seed)
	wantC := dense.New(m.Rows(), b.Cols)
	m.MulToStrategy(wantC, b, 1, cbm.StrategyBranch, 0)
	var csrWant *dense.Matrix
	if m.HasCSRPlan() {
		csrWant = dense.New(m.Rows(), b.Cols)
		m.MulToStrategy(csrWant, b, 1, cbm.StrategyCSR, 0)
	}
	pinned := wantC
	if m.Plan() == cbm.StrategyCSR {
		pinned = csrWant
	}
	if pinned == nil {
		return fmt.Errorf("stress: pinned plan %v but the CSR plan is unavailable", m.Plan())
	}
	vb := dense.New(m.Rows(), 1)
	copy(vb.Data, v)
	wantY := dense.New(m.Rows(), 1)
	m.MulTo(wantY, vb, 1)
	for it := 0; it < cfg.Iters; it++ {
		t1 := 2 + rng.Intn(cfg.MaxThreads-1)
		t2 := 2 + rng.Intn(cfg.MaxThreads-1)
		t3 := 2 + rng.Intn(cfg.MaxThreads-1)
		t4 := 2 + rng.Intn(cfg.MaxThreads-1)
		var e1, e2, e3, e4 error
		parallel.Do(
			func() {
				if got := m.MulParallel(b, t1); !got.Equal(pinned) {
					e1 = fmt.Errorf("MulParallel(threads=%d): %w", t1, Compare(got, pinned, Tolerance{}))
				}
			},
			func() {
				got := dense.New(m.Rows(), b.Cols)
				m.MulToStrategy(got, b, t2, cbm.StrategyBranch, 0)
				if !got.Equal(wantC) {
					e2 = fmt.Errorf("MulToStrategy(two-stage, threads=%d): %w", t2, Compare(got, wantC, Tolerance{}))
				}
			},
			func() {
				if err := bitwiseVec(m.MulVecParallel(v, t3), wantY.Data); err != nil {
					e3 = fmt.Errorf("MulVecParallel(threads=%d) vs one-column MulTo: %w", t3, err)
				}
			},
			func() {
				if csrWant == nil {
					return
				}
				got := dense.New(m.Rows(), b.Cols)
				m.MulToStrategy(got, b, t4, cbm.StrategyCSR, 0)
				if !got.Equal(csrWant) {
					e4 = fmt.Errorf("MulToStrategy(csr, threads=%d): %w", t4, Compare(got, csrWant, Tolerance{}))
				}
			},
		)
		for _, err := range []error{e1, e2, e3, e4} {
			if err != nil {
				return fmt.Errorf("stress iter %d (seed %d): %w", it, cfg.Seed, err)
			}
		}
	}
	return nil
}

// StressPrimitives hammers parallel.For/ForDynamic/ForRange/Reduce with
// randomized sizes, thread counts and grain sizes, asserting exact
// coverage (every index visited once) and reduction correctness on
// every round. Run it under -race to surface distribution races.
func StressPrimitives(cfg StressConfig) error {
	cfg = cfg.normalized()
	rng := xrand.New(cfg.Seed)
	for it := 0; it < cfg.Iters; it++ {
		n := 1 + rng.Intn(5000)
		threads := 1 + rng.Intn(cfg.MaxThreads)
		grain := 1 + rng.Intn(n+16)
		hits := make([]int32, n)
		parallel.ForDynamic(n, threads, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				return fmt.Errorf("stress iter %d: ForDynamic(n=%d threads=%d grain=%d) hit index %d %d times",
					it, n, threads, grain, i, h)
			}
			hits[i] = 0
		}
		parallel.For(n, threads, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				return fmt.Errorf("stress iter %d: For(n=%d threads=%d) hit index %d %d times",
					it, n, threads, i, h)
			}
			hits[i] = 0
		}
		parallel.ForRange(n, threads, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				return fmt.Errorf("stress iter %d: ForRange(n=%d threads=%d) hit index %d %d times",
					it, n, threads, i, h)
			}
		}
		sum := parallel.Reduce(n, threads,
			func() int64 { return 0 },
			func(acc int64, i int) int64 { return acc + int64(i) },
			func(a, b int64) int64 { return a + b },
		)
		if want := int64(n) * int64(n-1) / 2; sum != want {
			return fmt.Errorf("stress iter %d: Reduce(n=%d threads=%d) = %d, want %d",
				it, n, threads, sum, want)
		}
	}
	return nil
}
