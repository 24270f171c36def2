package cbm

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bench"
	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func randomDiag(rng *xrand.RNG, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = rng.Float32() + 0.5 // keep away from 0: DAD divides by d
	}
	return d
}

func TestMulAXMatchesCSR(t *testing.T) {
	rng := xrand.New(1)
	a := randomBinary(rng, 40, 0.2, true)
	m, _, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, 40, 13)
	got := m.Mul(b)
	want := kernels.SpMM(a, b)
	if d := dense.MaxRelDiff(got, want, 1); d > 1e-5 {
		t.Fatalf("AX rel diff %v", d)
	}
}

func TestMulADXMatchesCSR(t *testing.T) {
	rng := xrand.New(2)
	a := randomBinary(rng, 35, 0.25, true)
	m, _, err := Compress(a, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, 35)
	ad := m.WithColumnScale(d)
	if ad.Kind() != KindAD {
		t.Fatalf("kind = %v", ad.Kind())
	}
	b := randomDense(rng, 35, 9)
	got := ad.Mul(b)
	want := kernels.SpMM(a.ScaleCols(d), b)
	if diff := dense.MaxRelDiff(got, want, 1); diff > 1e-5 {
		t.Fatalf("ADX rel diff %v", diff)
	}
}

func TestMulDADXMatchesCSR(t *testing.T) {
	rng := xrand.New(3)
	a := randomBinary(rng, 33, 0.25, true)
	m, _, err := Compress(a, Options{Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, 33)
	dad := m.WithSymmetricScale(d)
	if dad.Kind() != KindDAD {
		t.Fatalf("kind = %v", dad.Kind())
	}
	b := randomDense(rng, 33, 7)
	got := dad.Mul(b)
	want := kernels.SpMM(a.ScaleCols(d).ScaleRows(d), b)
	if diff := dense.MaxRelDiff(got, want, 1); diff > 1e-4 {
		t.Fatalf("DADX rel diff %v", diff)
	}
}

func TestMulParallelMatchesSequentialAllKinds(t *testing.T) {
	rng := xrand.New(4)
	a := synth.SBMGroups(500, 25, 0.8, 0.5, 11)
	n := a.Rows
	base, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, n)
	b := randomDense(rng, n, 20)
	mats := map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	}
	for name, m := range mats {
		seq := m.Mul(b)
		for _, threads := range []int{2, 4, 8} {
			par := m.MulParallel(b, threads)
			if diff := dense.MaxRelDiff(seq, par, 1); diff > 1e-6 {
				t.Fatalf("%s threads=%d: rel diff %v", name, threads, diff)
			}
		}
	}
}

// Branch-parallel updates must be bitwise identical to sequential:
// every row's update chain lives inside exactly one branch.
func TestMulParallelBitwiseDeterministic(t *testing.T) {
	rng := xrand.New(5)
	a := synth.SBMGroups(400, 20, 0.9, 0.3, 17)
	m, _, err := Compress(a, Options{Alpha: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := randomDense(rng, a.Rows, 8)
	first := m.MulParallel(b, 8)
	for i := 0; i < 5; i++ {
		again := m.MulParallel(b, 8)
		if !first.Equal(again) {
			t.Fatalf("run %d: parallel result not deterministic", i)
		}
	}
	if !first.Equal(m.Mul(b)) {
		t.Fatal("parallel differs bitwise from sequential")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := xrand.New(6)
	a := randomBinary(rng, 45, 0.2, true)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, 45)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		v := make([]float32, 45)
		rng.FillUniform(v)
		bv := dense.New(45, 1)
		copy(bv.Data, v)
		want := m.Mul(bv)
		got := m.MulVec(v)
		for i := range got {
			if got[i] != want.At(i, 0) {
				t.Fatalf("%s: MulVec[%d] = %v, want %v (bitwise)", name, i, got[i], want.At(i, 0))
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { m.Mul(dense.New(3, 2)) },
		func() { m.MulTo(dense.New(2, 2), dense.New(a.Rows, 2), 1) },
		func() { m.MulVec(make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			f()
		}()
	}
}

func TestScaledVariantPanics(t *testing.T) {
	a := paperFig1Matrix()
	m, _, _ := Compress(a, Options{})
	d := make([]float32, a.Rows)
	for i := range d {
		d[i] = 1
	}
	ad := m.WithColumnScale(d)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: scaling a scaled matrix")
			}
		}()
		ad.WithColumnScale(d)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic: wrong diag length")
			}
		}()
		m.WithSymmetricScale(make([]float32, 2))
	}()
}

// The two-stage plan is bitwise identical to its single-threaded self
// at any thread count for every kind: every row's update chain lives
// inside one branch. (TestCSRPlanMatchesReference covers the CSR plan.)
func TestStrategyEquivalenceAllKinds(t *testing.T) {
	rng := xrand.New(73)
	a := synth.SBMGroups(240, 24, 0.85, 0.4, 29)
	base, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, a.Rows)
	b := randomDense(rng, a.Rows, 33)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		want := dense.New(a.Rows, b.Cols)
		m.MulToStrategy(want, b, 1, StrategyBranch, 0)
		for _, threads := range []int{2, 8} {
			got := dense.New(a.Rows, b.Cols)
			m.MulToStrategy(got, b, threads, StrategyBranch, 0)
			if !got.Equal(want) {
				t.Fatalf("%s threads=%d: not bitwise equal to threads=1", name, threads)
			}
		}
	}
}

// The strategy entry point must report the offending dimensions in its
// shape panics, in the same format as MulTo.
func TestMulToStrategyShapePanicMessage(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c, b *dense.Matrix
		want string
	}{
		{"operand rows", dense.New(6, 2), dense.New(3, 2), "cbm: Mul shape mismatch: 6×6 · 3×2"},
		{"output shape", dense.New(2, 2), dense.New(6, 3), "cbm: Mul output shape mismatch: got 2×2, want 6×3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected shape panic")
				}
				msg, ok := r.(string)
				if !ok || msg != c.want {
					t.Fatalf("panic = %v, want %q", r, c.want)
				}
			}()
			m.MulToStrategy(c.c, c.b, 1, StrategyBranch, 0)
		})
	}
}

// Property: CBM product equals CSR product across random graphs, α
// values, kinds, and thread counts — the paper's correctness criterion
// (1e-5 relative tolerance).
func TestMulEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(50)
		a := randomBinary(rng, n, 0.1+0.3*rng.Float64(), rng.Float64() < 0.7)
		alpha := rng.Intn(6)
		threads := 1 + rng.Intn(4)
		base, _, err := Compress(a, Options{Alpha: alpha, Threads: threads})
		if err != nil {
			return false
		}
		b := randomDense(rng, n, 1+rng.Intn(16))
		d := randomDiag(rng, n)
		// AX
		if dense.MaxRelDiff(base.MulParallel(b, threads), kernels.SpMM(a, b), 1) > 1e-5 {
			return false
		}
		// ADX
		ad := base.WithColumnScale(d)
		if dense.MaxRelDiff(ad.MulParallel(b, threads), kernels.SpMM(a.ScaleCols(d), b), 1) > 1e-4 {
			return false
		}
		// DADX
		dad := base.WithSymmetricScale(d)
		want := kernels.SpMM(a.ScaleCols(d).ScaleRows(d), b)
		return dense.MaxRelDiff(dad.MulParallel(b, threads), want, 1) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Scalar-operation accounting: the delta matrix must never have more
// non-zeros than the original (Property 2's operation-count argument).
func TestProperty2OperationBound(t *testing.T) {
	for _, alpha := range []int{0, 1, 4, 16} {
		a := synth.SBMGroups(400, 20, 0.75, 0.5, 21)
		m, _, err := Compress(a, Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if m.Delta().NNZ() > a.NNZ() {
			t.Fatalf("alpha=%d: delta nnz %d > A nnz %d", alpha, m.Delta().NNZ(), a.NNZ())
		}
	}
}

func TestMulD1AD2MatchesCSR(t *testing.T) {
	// The paper's D₁AD₂ extension: distinct left and right diagonals.
	rng := xrand.New(31)
	a := randomBinary(rng, 38, 0.25, true)
	base, _, err := Compress(a, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	left := randomDiag(rng, 38)
	right := randomDiag(rng, 38)
	m := base.WithScales(left, right)
	b := randomDense(rng, 38, 9)
	got := m.MulParallel(b, 3)
	want := kernels.SpMM(a.ScaleCols(right).ScaleRows(left), b)
	if d := dense.MaxRelDiff(got, want, 1); d > 1e-4 {
		t.Fatalf("D1AD2 rel diff %v", d)
	}
	// symmetric case degenerates to WithSymmetricScale
	sym := base.WithScales(left, left)
	dad := base.WithSymmetricScale(left)
	if !sym.Mul(b).Equal(dad.Mul(b)) {
		t.Fatal("WithScales(d,d) differs from WithSymmetricScale(d)")
	}
}

func TestMulVecParallelMatchesSequential(t *testing.T) {
	rng := xrand.New(41)
	a := synth.SBMGroups(300, 20, 0.8, 0.5, 13)
	base, _, err := Compress(a, Options{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := randomDiag(rng, a.Rows)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		v := make([]float32, a.Rows)
		rng.FillUniform(v)
		seq := m.MulVec(v)
		for _, threads := range []int{2, 4, 8} {
			par := m.MulVecParallel(v, threads)
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("%s threads=%d: element %d differs (%v vs %v)",
						name, threads, i, seq[i], par[i])
				}
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Describe()
	for _, want := range []string{"kind=A", "n=6", "deltas="} {
		if !contains(s, want) {
			t.Fatalf("Describe() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// An out-of-range strategy value must fail loudly, not silently fall
// through to some default plan.
func TestMulToStrategyUnknownPanics(t *testing.T) {
	a := paperFig1Matrix()
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unknown strategy")
		}
		msg, ok := r.(string)
		if !ok || !contains(msg, "unknown update strategy") {
			t.Fatalf("panic = %v, want unknown-strategy message", r)
		}
	}()
	m.MulToStrategy(dense.New(a.Rows, 2), dense.New(a.Rows, 2), 1, UpdateStrategy(42), 0)
}

func TestUpdateStrategyString(t *testing.T) {
	cases := map[UpdateStrategy]string{
		StrategyBranch:    "branch",
		StrategyCSR:       "csr",
		UpdateStrategy(9): "UpdateStrategy(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

// MulTo runs the pinned plan: at every thread count it must be bitwise
// equal to forcing that plan through MulToStrategy and, when the pin
// is the two-stage plan, to the sequential two-stage reference.
func TestMulToAutoDispatchBitwiseStable(t *testing.T) {
	rng := xrand.New(89)
	d := randomDiag(rng, 350)
	b := randomDense(rng, 350, 19)
	for _, a := range []*sparse.CSR{
		synth.HolmeKim(350, 3, 0.3, 53),        // barely compressible
		synth.SBMGroups(350, 35, 0.9, 0.3, 53), // compressible
	} {
		base, _, err := Compress(a, Options{Alpha: 2})
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*Matrix{
			"A":   base,
			"AD":  base.WithColumnScale(d),
			"DAD": base.WithSymmetricScale(d),
		} {
			twoStage := dense.New(a.Rows, b.Cols)
			m.MulToStrategy(twoStage, b, 1, StrategyBranch, 0)
			for _, threads := range []int{1, 2, 4, 8} {
				forced := dense.New(a.Rows, b.Cols)
				m.MulToStrategy(forced, b, threads, m.Plan(), 0)
				got := dense.New(a.Rows, b.Cols)
				m.MulTo(got, b, threads)
				if !got.Equal(forced) {
					t.Fatalf("%s threads=%d: MulTo not bitwise equal to forced %v plan", name, threads, m.Plan())
				}
				if m.Plan() == StrategyBranch && !got.Equal(twoStage) {
					t.Fatalf("%s threads=%d: branch plan not bitwise equal to two-stage", name, threads)
				}
			}
		}
	}
}

// The plan rule pins the CSR plan exactly when nnz(A) < 1.3·nnz(A′).
// For every mini-registry analog the pin follows that rule and does
// not move with the thread count or operand width; the analogs the
// repository benchmark serves land on the expected sides.
func TestPlanForDeterministic(t *testing.T) {
	want := map[string]UpdateStrategy{
		"cora-mini":          StrategyCSR,
		"collab-mini":        StrategyBranch,
		"ogbn-proteins-mini": StrategyBranch,
	}
	for _, ds := range bench.MiniRegistry(4) {
		a := ds.Generate(1)
		m, _, err := Compress(a, Options{Alpha: ds.Paper.BestAlphaPar})
		if err != nil {
			t.Fatal(err)
		}
		rule := StrategyBranch
		if 10*a.NNZ() < 13*m.NumDeltas() {
			rule = StrategyCSR
		}
		if m.Plan() != rule {
			t.Fatalf("%s: pinned %v, rule says %v (nnz %d, deltas %d)", ds.Name, m.Plan(), rule, a.NNZ(), m.NumDeltas())
		}
		if w, ok := want[ds.Name]; ok && m.Plan() != w {
			t.Fatalf("%s: pinned %v, want %v", ds.Name, m.Plan(), w)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			for _, cols := range []int{1, 4, 16, 128} {
				if got := m.PlanFor(threads, cols); got != m.Plan() {
					t.Fatalf("%s: PlanFor(%d, %d) = %v, pinned %v", ds.Name, threads, cols, got, m.Plan())
				}
			}
		}
	}
}

// The plan is a property of the matrix: the scaled views inherit it, a
// decoded artifact (no source CSR) runs the two-stage plan, and the
// rule flips exactly at the 1.3 ratio boundary.
func TestPlanIsPinnedToMatrix(t *testing.T) {
	rng := xrand.New(97)
	for _, a := range []*sparse.CSR{
		synth.HolmeKim(300, 3, 0.3, 67),
		synth.SBMGroups(300, 30, 0.9, 0.3, 67),
	} {
		m, _, err := Compress(a, Options{Alpha: 2})
		if err != nil {
			t.Fatal(err)
		}
		d, e := randomDiag(rng, a.Rows), randomDiag(rng, a.Rows)
		for name, v := range map[string]*Matrix{
			"AD":    m.WithColumnScale(d),
			"DAD":   m.WithSymmetricScale(d),
			"D1AD2": m.WithScales(d, e),
		} {
			if v.Plan() != m.Plan() {
				t.Fatalf("%s view pinned %v, base %v", name, v.Plan(), m.Plan())
			}
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Plan() != StrategyBranch {
			t.Fatalf("decoded matrix pinned %v, want branch", dec.Plan())
		}
	}

	// Forged nnz counts pin the boundary: 13 vs 10 is exactly 1.3.
	nnz := func(k int) *sparse.CSR {
		rows := make([][]int32, k)
		for i := range rows {
			rows[i] = []int32{int32(i)}
		}
		return sparse.FromAdjacency(k, k, rows)
	}
	for _, tc := range []struct {
		src, delta int
		want       UpdateStrategy
	}{
		{12, 10, StrategyCSR},
		{13, 10, StrategyBranch},
		{25, 20, StrategyCSR},
		{26, 20, StrategyBranch},
		{0, 0, StrategyBranch},
	} {
		m := &Matrix{src: nnz(tc.src), delta: nnz(tc.delta)}
		m.pinPlan()
		if m.plan != tc.want {
			t.Fatalf("nnz(A)=%d nnz(A')=%d: pinned %v, want %v", tc.src, tc.delta, m.plan, tc.want)
		}
	}
}

// The CSR plan computes the same product by a different summation
// order: it must agree with the two-stage reference within float32
// accumulation tolerance for every kind, and be bitwise identical to
// itself across thread counts.
func TestCSRPlanMatchesReference(t *testing.T) {
	rng := xrand.New(43)
	a := synth.HolmeKim(400, 3, 0.3, 59)
	base, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !base.HasCSRPlan() {
		t.Fatal("compressed matrix lost its source CSR")
	}
	d := randomDiag(rng, a.Rows)
	b := randomDense(rng, a.Rows, 17)
	for name, m := range map[string]*Matrix{
		"A":   base,
		"AD":  base.WithColumnScale(d),
		"DAD": base.WithSymmetricScale(d),
	} {
		want := dense.New(a.Rows, b.Cols)
		m.MulToStrategy(want, b, 1, StrategyBranch, 0)
		csr1 := dense.New(a.Rows, b.Cols)
		m.MulToStrategy(csr1, b, 1, StrategyCSR, 0)
		for i := range want.Data {
			w, g := float64(want.Data[i]), float64(csr1.Data[i])
			if diff := math.Abs(w - g); diff > 1e-5+1e-4*math.Abs(w) {
				t.Fatalf("%s: csr plan diverges at %d: %g vs %g", name, i, g, w)
			}
		}
		for _, threads := range []int{2, 4, 8} {
			csrT := dense.New(a.Rows, b.Cols)
			m.MulToStrategy(csrT, b, threads, StrategyCSR, 0)
			if !csrT.Equal(csr1) {
				t.Fatalf("%s: csr plan not thread-deterministic at %d threads", name, threads)
			}
		}
	}
}

// Decoded artifacts drop the source CSR: the CSR plan becomes
// unavailable (forcing it panics) and MulTo runs the two-stage plan,
// bitwise equal to the original's two-stage product.
func TestDecodedMatrixCSRFallback(t *testing.T) {
	rng := xrand.New(47)
	a := synth.HolmeKim(300, 3, 0.3, 67)
	m, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.HasCSRPlan() {
		t.Fatal("decoded matrix claims a CSR plan")
	}
	b := randomDense(rng, a.Rows, 16)
	want := dense.New(a.Rows, b.Cols)
	m.MulToStrategy(want, b, 1, StrategyBranch, 0)
	got := dense.New(a.Rows, b.Cols)
	dec.MulTo(got, b, 4)
	if !got.Equal(want) {
		t.Fatal("decoded matrix MulTo not bitwise equal to two-stage reference")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("forcing the CSR plan on a decoded matrix must panic")
		}
	}()
	dec.MulToStrategy(got, b, 1, StrategyCSR, 0)
}

// AutoTune's per-stage split must be scoped to its own measurement.
// Background goroutines keep update spans open on the GLOBAL obs
// totals for the whole tune; with global-delta attribution those spans
// land in the split (about 4× the measured time), so the scoped split
// must stay within its own multiply's wall time.
func TestAutoTuneScopedStagesUnderConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	a := synth.SBMGroups(600, 30, 0.8, 0.4, 101)
	builder, err := NewBuilder(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				obs.DoWith(obs.Global, obs.StageUpdate, func() { time.Sleep(200 * time.Microsecond) })
			}
		}()
	}
	_, _, frontier, err := AutoTune(builder, []int{0, 4}, 32, 3, 1, 109)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range frontier {
		if res.Plan == "" {
			t.Fatalf("alpha=%d: frontier entry missing the pinned plan", res.Alpha)
		}
		// Warmup calls are in the divisor too, so allow 2× for a cold
		// first call; leaked background spans would add ~4×.
		if staged := res.SpMMSeconds + res.UpdateSeconds; staged > 2*res.Seconds+1e-4 {
			t.Fatalf("alpha=%d plan=%s: stages sum to %.4gs for a %.4gs multiply — background spans leaked into the scoped split",
				res.Alpha, res.Plan, staged, res.Seconds)
		}
	}
}
