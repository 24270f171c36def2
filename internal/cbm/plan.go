// Plan pinning. Every matrix carries one execution plan, fixed when it
// is built: the paper's two-stage pipeline (delta SpMM, barrier, tree
// update) or, when compression bought almost nothing, the raw
// diag-scaled CSR product that skips the tree. The plan never depends
// on the thread count, the operand width or process state, so the
// numeric class of every product (bitwise CBM family vs tolerance-only
// CSR) is a property of the matrix: thread-count invariance and
// batched-vs-solo bitwise equality hold by construction.

package cbm

import "fmt"

// UpdateStrategy names an execution plan for the multiply.
type UpdateStrategy int

const (
	// StrategyBranch is the paper's two-stage scheme: whole-matrix
	// delta SpMM, barrier, then whole root subtrees distributed to
	// threads for the update.
	StrategyBranch UpdateStrategy = iota
	// StrategyCSR bypasses the compression tree and multiplies the
	// original matrix directly with the diag-scaled CSR kernel — the
	// winning plan when compression bought nothing and the tree update
	// is pure overhead. Available only while the matrix carries its
	// source CSR (HasCSRPlan); its summation order differs from the
	// tree's, so it agrees with StrategyBranch within floating-point
	// tolerance rather than bitwise.
	StrategyCSR
)

func (s UpdateStrategy) String() string {
	switch s {
	case StrategyBranch:
		return "branch"
	case StrategyCSR:
		return "csr"
	default:
		return fmt.Sprintf("UpdateStrategy(%d)", int(s))
	}
}

// The CSR plan is pinned iff nnz(A) < csrPlanRatio·nnz(A′), with
// csrPlanRatio = csrPlanNum/csrPlanDen = 1.3 kept as an integer ratio
// so the boundary is exact. DESIGN.md §"Plan pinning" has the evidence
// for the threshold.
const (
	csrPlanNum = 13
	csrPlanDen = 10
)

// pinPlan fixes the matrix's execution plan from its structure. Every
// constructor of a KindA matrix calls it once; the scaled views copy
// the base's plan. Matrices without a source CSR (decoded artifacts)
// always run the two-stage plan.
func (m *Matrix) pinPlan() {
	m.plan = StrategyBranch
	if m.src != nil && csrPlanDen*int64(m.src.NNZ()) < csrPlanNum*int64(m.delta.NNZ()) {
		m.plan = StrategyCSR
	}
}

// Plan returns the execution plan MulTo runs for this matrix.
func (m *Matrix) Plan() UpdateStrategy { return m.plan }

// PlanFor returns the pinned plan, whatever its arguments. It keeps
// the signature of the per-call selector it replaced because the
// repository benchmark (gcnbench) still calls it; use Plan instead.
func (m *Matrix) PlanFor(threads, cols int) UpdateStrategy { return m.plan }
