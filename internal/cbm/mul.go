// Matrix multiplication kernels for the CBM format (Sec. IV–V).
//
// C = M·B is computed in two stages:
//
//  1. Multiplication stage: C ← A'·B (or (AD)'·B), a plain sparse-dense
//     product on the delta matrix, delegated to the same SpMM kernel
//     the CSR baseline uses (the paper delegates to Intel MKL here).
//  2. Update stage: the compression tree is traversed in topological
//     order; each visited row accumulates its parent's finished row
//     (an axpy), with the extra d_x/d_parent row scaling for DAD
//     matrices (Eq. 6). Branches hanging off the virtual root are
//     independent, so the parallel variant distributes whole branches
//     to threads with dynamic scheduling.
//
// Property 3 holds: no scratch proportional to the matrix size is
// allocated; everything happens in the output matrix C.

package cbm

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/dense"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// kindPanicMsg builds the panic text for an unhandled matrix kind in a
// kernel switch. It lives out of line so //cbm:hotpath bodies keep an
// allocation-free success path, and it carries the offending kind and
// dimensions so the report needs no round-trip.
func kindPanicMsg(k Kind, n int) string {
	return fmt.Sprintf("cbm: unknown matrix kind %d (%v) on %d×%d matrix", int(k), k, n, n)
}

// strategyPanicMsg builds the panic text for an unknown strategy, out
// of line for the same hotalloc reason as kindPanicMsg.
func strategyPanicMsg(s UpdateStrategy, n int) string {
	return fmt.Sprintf("cbm: unknown update strategy %d (%v) on %d×%d matrix", int(s), s, n, n)
}

// Mul computes C = M·B sequentially and returns C.
func (m *Matrix) Mul(b *dense.Matrix) *dense.Matrix {
	c := dense.New(m.n, b.Cols)
	m.MulTo(c, b, 1)
	return c
}

// MulParallel computes C = M·B with the given number of threads and
// returns C. threads < 1 selects the default.
func (m *Matrix) MulParallel(b *dense.Matrix, threads int) *dense.Matrix {
	c := dense.New(m.n, b.Cols)
	m.MulTo(c, b, threads)
	return c
}

// MulTo computes c = M·b into the pre-allocated output c (overwritten)
// with the matrix's pinned plan (see Plan): the paper's two-stage
// pipeline, or the raw diag-scaled CSR product when compression bought
// nothing. The CSR plan computes the same product by a different
// summation order and is validated within tolerance by the
// differential oracle.
//
//cbm:hotpath
func (m *Matrix) MulTo(c, b *dense.Matrix, threads int) {
	m.mulStrategy(c, b, threads, m.plan, obs.Global)
}

// MulToCtx is MulTo driven by an execution context: the thread budget
// and the observability sink come from ctx instead of bare parameters.
// It is the entry point the gnn Adjacency backends use on the pooled
// forward path.
//
//cbm:hotpath
func (m *Matrix) MulToCtx(ctx *exec.Ctx, c, b *dense.Matrix) {
	m.mulStrategy(c, b, ctx.Threads(), m.plan, ctx.Sink())
}

// MulToStrategy is MulTo with an explicit execution plan instead of the
// pinned one. colBlock is unused: it is kept only because the
// repository benchmark (gcnbench) calls this five-argument form.
//
//cbm:hotpath
func (m *Matrix) MulToStrategy(c, b *dense.Matrix, threads int, strat UpdateStrategy, colBlock int) {
	m.mulStrategy(c, b, threads, strat, obs.Global)
}

// MulToStrategyCtx is MulToStrategy driven by an execution context.
//
//cbm:hotpath
func (m *Matrix) MulToStrategyCtx(ctx *exec.Ctx, c, b *dense.Matrix, strat UpdateStrategy, colBlock int) {
	m.mulStrategy(c, b, ctx.Threads(), strat, ctx.Sink())
}

//cbm:hotpath
func (m *Matrix) mulStrategy(c, b *dense.Matrix, threads int, strat UpdateStrategy, sink obs.Sink) {
	if b.Rows != m.n {
		panic(fmt.Sprintf("cbm: Mul shape mismatch: %d×%d · %d×%d", m.n, m.n, b.Rows, b.Cols))
	}
	if c.Rows != m.n || c.Cols != b.Cols {
		panic(fmt.Sprintf("cbm: Mul output shape mismatch: got %d×%d, want %d×%d", c.Rows, c.Cols, m.n, b.Cols))
	}
	sink.Inc(obs.CounterMulCalls)
	switch strat {
	case StrategyBranch:
		m.mulTwoStage(c, b, threads, sink)
	case StrategyCSR:
		m.mulCSR(c, b, threads, sink)
	default:
		panic(strategyPanicMsg(strat, m.n))
	}
}

// mulTwoStage is the paper's Sec. V-A pipeline: delta SpMM over every
// row, full barrier, then the branch-parallel tree update.
//
//cbm:hotpath
func (m *Matrix) mulTwoStage(c, b *dense.Matrix, threads int, sink obs.Sink) {
	kernels.SpMMToSink(c, m.delta, b, threads, sink)
	// Closure-free sequential fast path: the obs.DoWith closure
	// allocates at this call site even when the update then runs
	// inline, which the zero-allocation serving path cannot afford.
	if parallel.Sequential(threads, len(m.branches)) {
		sp := sink.Begin(obs.StageUpdate)
		for _, branch := range m.branches {
			m.updateBranch(c, branch)
		}
		sp.End()
		return
	}
	obs.DoWith(sink, obs.StageUpdate, func() {
		parallel.ForDynamic(len(m.branches), threads, 1, func(bi int) {
			m.updateBranch(c, m.branches[bi])
		})
	})
}

// mulCSR is the StrategyCSR plan: the represented matrix multiplied
// directly as diag(left)·src·diag(right)·B, skipping the compression
// tree. Only available while the matrix carries its source CSR.
//
//cbm:hotpath
func (m *Matrix) mulCSR(c, b *dense.Matrix, threads int, sink obs.Sink) {
	if m.src == nil {
		panic("cbm: StrategyCSR requires the source matrix (see HasCSRPlan); decoded artifacts do not carry it")
	}
	switch m.kind {
	case KindA, KindAD, KindDAD:
	default:
		// The diagonals encode the kind implicitly, but a corrupted kind
		// must fail as loudly here as in the tree-walking plan.
		panic(kindPanicMsg(m.kind, m.n))
	}
	kernels.SpMMDiagTo(c, m.src, b, m.srcLeft, m.srcRight, threads, sink)
}

// updateBranch is the update stage (Eq. 6) over one root subtree,
// whose nodes arrive in pre-order (each parent strictly before its
// children). It is the only copy of the update loop: every multiply,
// matrix-vector products included, runs through it.
//
//cbm:hotpath
func (m *Matrix) updateBranch(c *dense.Matrix, branch []int32) {
	switch m.kind {
	case KindA, KindAD:
		for _, x := range branch {
			p := m.parent[x]
			if p < 0 {
				continue // virtual parent row is zero: nothing to add
			}
			blas.Add(c.Row(int(p)), c.Row(int(x)))
		}
	case KindDAD:
		d := m.diag
		for _, x := range branch {
			p := m.parent[x]
			row := c.Row(int(x))
			if p < 0 {
				// Eq. 6 with a virtual parent: u_x = d_x · ((AD)'B)_x.
				blas.Scal(d[x], row)
				continue
			}
			// u_x = d_x·(u_p/d_p + ((AD)'B)_x), fused into one pass.
			blas.AxpbyTo(row, d[x]/d[p], c.Row(int(p)), d[x], row)
		}
	default:
		panic(kindPanicMsg(m.kind, m.n))
	}
}

// MulVec computes y = M·v for a dense vector (the matrix-vector product
// of Sec. IV). It is MulTo on a one-column view of v, so it runs the
// pinned plan and is bitwise equal to the one-column matrix product.
func (m *Matrix) MulVec(v []float32) []float32 {
	return m.mulVec("MulVec", v, 1)
}

// MulVecParallel computes y = M·v with the given thread count.
func (m *Matrix) MulVecParallel(v []float32, threads int) []float32 {
	return m.mulVec("MulVecParallel", v, threads)
}

func (m *Matrix) mulVec(name string, v []float32, threads int) []float32 {
	if len(v) != m.n {
		panic(fmt.Sprintf("cbm: %s shape mismatch: matrix is %dx%d, len(v)=%d", name, m.n, m.n, len(v)))
	}
	obs.Inc(obs.CounterMulVecCalls)
	y := make([]float32, m.n)
	m.MulTo(&dense.Matrix{Rows: m.n, Cols: 1, Data: y}, &dense.Matrix{Rows: m.n, Cols: 1, Data: v}, threads)
	return y
}
