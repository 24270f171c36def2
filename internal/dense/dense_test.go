package dense

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/xrand"
)

func randMatrix(rng *xrand.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// naiveMul is the textbook triple loop in float64 for reference.
func naiveMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func TestMulMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {16, 8, 32}, {33, 17, 9}}
	for _, s := range shapes {
		a := randMatrix(rng, s[0], s[1])
		b := randMatrix(rng, s[1], s[2])
		got := Mul(a, b)
		want := naiveMul(a, b)
		if d := MaxRelDiff(got, want, 1); d > 1e-5 {
			t.Fatalf("shape %v: rel diff %v", s, d)
		}
	}
}

func TestMulParallelMatchesSequential(t *testing.T) {
	rng := xrand.New(2)
	a := randMatrix(rng, 67, 41)
	b := randMatrix(rng, 41, 29)
	seq := Mul(a, b)
	for _, threads := range []int{2, 4, 8} {
		par := MulParallel(a, b, threads)
		if !seq.Equal(par) {
			t.Fatalf("threads=%d: parallel result differs", threads)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(New(2, 3), New(4, 2))
}

func TestMulToReusesOutput(t *testing.T) {
	rng := xrand.New(3)
	a := randMatrix(rng, 10, 10)
	b := randMatrix(rng, 10, 10)
	c := randMatrix(rng, 10, 10) // garbage that must be overwritten
	MulTo(c, a, b, 1)
	want := naiveMul(a, b)
	if d := MaxRelDiff(c, want, 1); d > 1e-5 {
		t.Fatalf("MulTo did not overwrite: rel diff %v", d)
	}
}

func TestReLU(t *testing.T) {
	m := FromRows([][]float32{{-1, 2}, {0, -0.5}})
	m.ReLU()
	want := FromRows([][]float32{{0, 2}, {0, 0}})
	if !m.Equal(want) {
		t.Fatalf("ReLU = %v", m)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %d×%d", tr.Rows, tr.Cols)
	}
	if tr.At(0, 1) != 4 || tr.At(2, 0) != 3 {
		t.Fatalf("transpose values wrong: %v", tr)
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("double transpose is not identity")
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	m.ScaleRows([]float32{2, 10})
	want := FromRows([][]float32{{2, 4}, {30, 40}})
	if !m.Equal(want) {
		t.Fatalf("ScaleRows = %v", m)
	}
	m2 := FromRows([][]float32{{1, 2}, {3, 4}})
	m2.ScaleCols([]float32{2, 10})
	want2 := FromRows([][]float32{{2, 20}, {6, 40}})
	if !m2.Equal(want2) {
		t.Fatalf("ScaleCols = %v", m2)
	}
}

func TestAddBiasRow(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	m.AddBiasRow([]float32{10, 20})
	want := FromRows([][]float32{{11, 22}, {13, 24}})
	if !m.Equal(want) {
		t.Fatalf("AddBiasRow = %v", m)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float32{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMaxDiffMetrics(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{1, 2.5}})
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if d := MaxRelDiff(a, b, 1); d != 0.2 {
		t.Fatalf("MaxRelDiff = %v", d)
	}
	if d := MaxAbsDiff(a, a); d != 0 {
		t.Fatalf("self MaxAbsDiff = %v", d)
	}
}

func TestZeroSizedMatrices(t *testing.T) {
	a := New(0, 5)
	b := New(5, 0)
	c := Mul(New(0, 5), randMatrix(xrand.New(4), 5, 3))
	if c.Rows != 0 || c.Cols != 3 {
		t.Fatalf("0-row product shape %d×%d", c.Rows, c.Cols)
	}
	_ = a
	_ = b
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ within tolerance.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		r := 1 + rng.Intn(12)
		k := 1 + rng.Intn(12)
		c := 1 + rng.Intn(12)
		a := randMatrix(rng, r, k)
		b := randMatrix(rng, k, c)
		left := Mul(a, b).Transpose()
		right := Mul(b.Transpose(), a.Transpose())
		return MaxRelDiff(left, right, 1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		r := 1 + rng.Intn(10)
		k := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		a := randMatrix(rng, r, k)
		b1 := randMatrix(rng, k, c)
		b2 := randMatrix(rng, k, c)
		sum := b1.Clone().Add(b2)
		left := Mul(a, sum)
		right := Mul(a, b1).Add(Mul(a, b2))
		return MaxRelDiff(left, right, 1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndString(t *testing.T) {
	m := FromRows([][]float32{{1, -2}, {3, 4}})
	m.Scale(2)
	want := FromRows([][]float32{{2, -4}, {6, 8}})
	if !m.Equal(want) {
		t.Fatalf("Scale = %v", m)
	}
	s := m.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String() = %q", s)
	}
	big := New(100, 100)
	if bs := big.String(); len(bs) > 100 {
		t.Fatalf("large matrix String should be a summary, got %d chars", len(bs))
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("different shapes reported equal")
	}
	a := New(1, 2)
	b := New(1, 2)
	b.Data[1] = 5
	if a.Equal(b) {
		t.Fatal("different contents reported equal")
	}
}

func TestNewPanicsOnNegativeShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows shape %d×%d", m.Rows, m.Cols)
	}
}

func TestAddBiasRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).AddBiasRow([]float32{1})
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Add(New(3, 2))
}

func TestCopyFrom(t *testing.T) {
	src := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	dst := New(2, 3)
	if got := dst.CopyFrom(src); got != dst {
		t.Fatal("CopyFrom must return its receiver for chaining")
	}
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom result %v differs from source %v", dst.Data, src.Data)
	}
	dst.Set(0, 0, 99)
	if src.At(0, 0) != 1 {
		t.Fatal("CopyFrom shares storage")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	New(2, 3).CopyFrom(New(3, 2))
}

// axpyLoopMul is the i-k-j loop MulTo must reproduce bit for bit: zero
// each row of c, then add a[i,k]·b[k,:] for every nonzero a[i,k].
func axpyLoopMul(c, a, b *Matrix) {
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Row(i) {
			if av != 0 {
				blas.Axpy(av, b.Row(k), c.Row(i))
			}
		}
	}
}

// MulTo at threads 1, 2 and 3 must match the axpy loop bit for bit
// (any two NaNs equal). Odd row counts split across 2 and 3 threads put
// chunk edges off the 4-row grid of the GEMM micro-kernel; a third of
// A is ±0 and some of A is ±Inf or NaN; one B in two carries an Inf,
// which routes the product through the loop.
func TestMulToBitwiseMatchesAxpyLoop(t *testing.T) {
	rng := xrand.New(17)
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, s := range [][3]int{{37, 33, 40}, {101, 16, 16}, {67, 128, 17}, {9, 7, 4}, {50, 64, 128}} {
		for trial := 0; trial < 2; trial++ {
			m, k, n := s[0], s[1], s[2]
			a := randMatrix(rng, m, k)
			for i := range a.Data {
				switch rng.Intn(30) {
				case 0, 1, 2, 3, 4:
					a.Data[i] = 0
				case 5, 6, 7, 8, 9:
					a.Data[i] = float32(math.Copysign(0, -1))
				case 10:
					a.Data[i] = -inf
				case 11:
					a.Data[i] = nan
				}
			}
			b := randMatrix(rng, k, n)
			if trial == 1 {
				b.Data[rng.Intn(len(b.Data))] = inf
			}
			want := New(m, n)
			axpyLoopMul(want, a, b)
			for _, threads := range []int{1, 2, 3} {
				got := New(m, n)
				for i := range got.Data {
					got.Data[i] = nan
				}
				MulTo(got, a, b, threads)
				for i, w := range want.Data {
					if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
						t.Fatalf("%d×%d·%d×%d trial %d threads=%d: element %d = %v (%#08x), axpy loop gives %v (%#08x)",
							m, k, k, n, trial, threads, i, g, math.Float32bits(g), w, math.Float32bits(w))
					}
				}
			}
		}
	}
}

// BenchmarkMulTo times MulTo (blas.Gemm: the AVX2 micro-kernel where
// the CPU has it) against the axpy loop it replaces, single-threaded,
// at the GCN transform shapes of the benchmark workloads. Run with
//
//	go test -run '^$' -bench MulTo -cpu 1 ./internal/dense/
func BenchmarkMulTo(b *testing.B) {
	for _, s := range [][3]int{{4096, 128, 128}, {4096, 128, 16}, {2708, 16, 4}} {
		m, k, n := s[0], s[1], s[2]
		for _, impl := range []struct {
			name string
			mul  func(c, a, b *Matrix)
		}{
			{"gemm", func(c, a, b *Matrix) { MulTo(c, a, b, 1) }},
			{"axpyloop", axpyLoopMul},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, impl.name), func(b *testing.B) {
				rng := xrand.New(1)
				x, w, c := randMatrix(rng, m, k), randMatrix(rng, k, n), New(m, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.mul(c, x, w)
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
			})
		}
	}
}
