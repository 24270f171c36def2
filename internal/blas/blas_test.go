package blas

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randVec(rng *xrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestAxpyMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 100, 1001} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		want := make([]float32, n)
		a := float32(1.7)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		Axpy(a, x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestAxpyZeroAlphaIsNoop(t *testing.T) {
	rng := xrand.New(2)
	x := randVec(rng, 33)
	y := randVec(rng, 33)
	orig := make([]float32, len(y))
	copy(orig, y)
	Axpy(0, x, y)
	for i := range y {
		if y[i] != orig[i] {
			t.Fatalf("Axpy with a=0 modified y at %d", i)
		}
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Axpy(1, make([]float32, 3), make([]float32, 4))
}

func TestAddMatchesAxpyOne(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 8, 23, 64, 129} {
		x := randVec(rng, n)
		y1 := randVec(rng, n)
		y2 := make([]float32, n)
		copy(y2, y1)
		Add(x, y1)
		Axpy(1, x, y2)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("n=%d: Add differs from Axpy(1,..) at %d", n, i)
			}
		}
	}
}

func TestAxpbyTo(t *testing.T) {
	rng := xrand.New(4)
	for _, n := range []int{1, 7, 8, 9, 40} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		dst := make([]float32, n)
		a, b := float32(0.5), float32(-2.25)
		AxpbyTo(dst, a, x, b, y)
		for i := range dst {
			want := a*x[i] + b*y[i]
			if dst[i] != want {
				t.Fatalf("n=%d: AxpbyTo[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
	}
}

func TestAxpbyToAliasY(t *testing.T) {
	// The DAD update stage calls AxpbyTo with dst aliasing y.
	rng := xrand.New(5)
	n := 37
	x := randVec(rng, n)
	y := randVec(rng, n)
	want := make([]float32, n)
	a, b := float32(1.25), float32(0.75)
	for i := range want {
		want[i] = a*x[i] + b*y[i]
	}
	AxpbyTo(y, a, x, b, y)
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("aliased AxpbyTo[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestScal(t *testing.T) {
	rng := xrand.New(6)
	for _, n := range []int{0, 1, 8, 9, 31} {
		x := randVec(rng, n)
		want := make([]float32, n)
		for i := range want {
			want[i] = x[i] * 3.5
		}
		Scal(3.5, x)
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("n=%d: Scal[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestDot(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 100} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		var want float64
		for i := range x {
			want += float64(x[i]) * float64(y[i])
		}
		got := float64(Dot(x, y))
		if !almostEqual(got, want, 1e-5) {
			t.Fatalf("n=%d: Dot = %v, want %v", n, got, want)
		}
	}
}

func TestAsum(t *testing.T) {
	x := []float32{-1, 2, -3, 4}
	if got := Asum(x); got != 10 {
		t.Fatalf("Asum = %v, want 10", got)
	}
	if got := Asum(nil); got != 0 {
		t.Fatalf("Asum(nil) = %v, want 0", got)
	}
}

func TestFillAndCopy(t *testing.T) {
	x := make([]float32, 17)
	Fill(x, 2.5)
	for i, v := range x {
		if v != 2.5 {
			t.Fatalf("Fill[%d] = %v", i, v)
		}
	}
	y := make([]float32, 17)
	Copy(x, y)
	for i := range y {
		if y[i] != 2.5 {
			t.Fatalf("Copy[%d] = %v", i, y[i])
		}
	}
}

// Property: Axpy is linear — Axpy(a, x, y) then Axpy(b, x, y) equals
// Axpy(a+b, x, y) within float tolerance.
func TestAxpyAdditivityProperty(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw int8) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(64)
		a := float32(aRaw) / 16
		b := float32(bRaw) / 16
		x := randVec(rng, n)
		y0 := randVec(rng, n)
		y1 := make([]float32, n)
		copy(y1, y0)
		Axpy(a, x, y0)
		Axpy(b, x, y0)
		Axpy(a+b, x, y1)
		for i := range y0 {
			if !almostEqual(float64(y0[i]), float64(y1[i]), 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(128)
		x := randVec(rng, n)
		y := randVec(rng, n)
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every unrolled kernel has three code paths (8-wide body, 4-wide
// mid-tail, scalar tail); lengths 0..24 exercise all residues of both
// unroll widths, and the unrolls must not change a single bit relative
// to the plain scalar loop. The second half is a quick-check of the
// exported kernels (the AVX2 assembly where the CPU has it) against the
// Go loops they must reproduce, over lengths 0..300 at unaligned
// offsets with heavy-tailed and non-finite operands, aliased outputs,
// and guard cells around every slice that neither path may write.
func TestUnrollTailsBitwiseMatchScalar(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	rng := xrand.New(97)
	const a, b = 1.37, -0.61
	for n := 0; n <= 24; n++ {
		x := randVec(rng, n)
		y := randVec(rng, n)

		wantAxpy := append([]float32(nil), y...)
		for i := range wantAxpy {
			wantAxpy[i] += a * x[i]
		}
		gotAxpy := append([]float32(nil), y...)
		Axpy(a, x, gotAxpy)

		wantAdd := append([]float32(nil), y...)
		for i := range wantAdd {
			wantAdd[i] += x[i]
		}
		gotAdd := append([]float32(nil), y...)
		Add(x, gotAdd)

		wantAxpby := make([]float32, n)
		for i := range wantAxpby {
			wantAxpby[i] = a*x[i] + b*y[i]
		}
		gotAxpby := make([]float32, n)
		AxpbyTo(gotAxpby, a, x, b, y)

		wantScal := append([]float32(nil), x...)
		for i := range wantScal {
			wantScal[i] *= a
		}
		gotScal := append([]float32(nil), x...)
		Scal(a, gotScal)

		for i := 0; i < n; i++ {
			if math.Float32bits(gotAxpy[i]) != math.Float32bits(wantAxpy[i]) {
				t.Fatalf("n=%d Axpy[%d]: %v != %v", n, i, gotAxpy[i], wantAxpy[i])
			}
			if math.Float32bits(gotAdd[i]) != math.Float32bits(wantAdd[i]) {
				t.Fatalf("n=%d Add[%d]: %v != %v", n, i, gotAdd[i], wantAdd[i])
			}
			if math.Float32bits(gotAxpby[i]) != math.Float32bits(wantAxpby[i]) {
				t.Fatalf("n=%d AxpbyTo[%d]: %v != %v", n, i, gotAxpby[i], wantAxpby[i])
			}
			if math.Float32bits(gotScal[i]) != math.Float32bits(wantScal[i]) {
				t.Fatalf("n=%d Scal[%d]: %v != %v", n, i, gotScal[i], wantScal[i])
			}
		}
	}

	scalars := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 3.7e11, -2.9e-5,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	const guard = 8
	for n := 0; n <= 300; n++ {
		for off := 0; off < 4; off++ {
			xOff, yOff, dOff := off, 3-off, (off+2)%4
			x := buf{nastyVec(rng, n+guard+4), xOff, n}
			y := buf{nastyVec(rng, n+guard+4), yOff, n}
			for _, sa := range scalars {
				// a == 0 (either sign) must leave y alone even where x
				// holds Inf or NaN; the Go oracle encodes that contract
				// explicitly because axpyGo itself has no early return.
				want := cloneBuf(y)
				if sa != 0 {
					axpyGo(sa, x.win(), want.win())
				}
				got := cloneBuf(y)
				Axpy(sa, x.win(), got.win())
				checkBuf(t, "Axpy", n, off, sa, 0, got, want)

				want = cloneBuf(x)
				scalGo(sa, want.win())
				got = cloneBuf(x)
				Scal(sa, got.win())
				checkBuf(t, "Scal", n, off, sa, 0, got, want)

				for _, sb := range scalars {
					want = buf{nastyVec(rng, n+guard+4), dOff, n}
					got = cloneBuf(want)
					axpbyToGo(want.win(), sa, x.win(), sb, y.win())
					AxpbyTo(got.win(), sa, x.win(), sb, y.win())
					checkBuf(t, "AxpbyTo", n, off, sa, sb, got, want)

					// dst aliasing x, then dst aliasing y: the DAD
					// update writes the parent row into itself.
					want, got = cloneBuf(x), cloneBuf(x)
					axpbyToGo(want.win(), sa, want.win(), sb, y.win())
					AxpbyTo(got.win(), sa, got.win(), sb, y.win())
					checkBuf(t, "AxpbyTo(dst=x)", n, off, sa, sb, got, want)

					want, got = cloneBuf(y), cloneBuf(y)
					axpbyToGo(want.win(), sa, x.win(), sb, want.win())
					AxpbyTo(got.win(), sa, x.win(), sb, got.win())
					checkBuf(t, "AxpbyTo(dst=y)", n, off, sa, sb, got, want)
				}
			}
			want := cloneBuf(y)
			addGo(x.win(), want.win())
			got := cloneBuf(y)
			Add(x.win(), got.win())
			checkBuf(t, "Add", n, off, 1, 0, got, want)
		}
	}
}

// buf is a vector with guard cells on both sides of the window
// [lo, lo+n) a kernel may touch.
type buf struct {
	data  []float32
	lo, n int
}

func (b buf) win() []float32 { return b.data[b.lo : b.lo+b.n : b.lo+b.n] }

func cloneBuf(b buf) buf {
	return buf{append([]float32(nil), b.data...), b.lo, b.n}
}

// checkBuf compares got and want over the whole buffer, so a write
// into a guard cell fails as surely as a wrong result.
func checkBuf(t *testing.T, kernel string, n, off int, a, b float32, got, want buf) {
	t.Helper()
	for i := range want.data {
		if !sameBits(got.data[i], want.data[i]) {
			t.Fatalf("%s n=%d off=%d a=%v b=%v: cell %d (window [%d,%d)) = %v (%#08x), Go loop gives %v (%#08x)",
				kernel, n, off, a, b, i, want.lo, want.lo+want.n,
				got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
		}
	}
}

// sameBits reports whether got and want are the same float32 bit for
// bit, except that any two NaNs match. When both operands of an x86
// add or multiply are NaN, the result carries the first operand's
// payload, and the compiler picks the order of commutative operands
// per element: within one unrolled Go loop some lanes compute y+x and
// others x+y. Only the payload of such a NaN is unspecified; whether a
// result is NaN, and every other bit pattern including the sign of
// zero and infinity, must match.
func sameBits(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got != got && want != want)
}

// nastyVec draws signed log-uniform magnitudes in [1e-6, 1e12] with
// about one element in eight replaced by ±0, ±Inf, a subnormal or a NaN
// (quiet or signalling, either sign, assorted payloads).
func nastyVec(rng *xrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch k := rng.Intn(24); k {
		case 0:
			v[i] = 0
		case 1:
			v[i] = float32(math.Copysign(0, -1))
		case 2:
			v[i] = float32(math.Inf(1))
		case 3:
			v[i] = float32(math.Inf(-1))
		case 4:
			v[i] = math.Float32frombits(0x7fc00000 | uint32(rng.Uint64())&0x803fffff)
		case 5:
			v[i] = math.Float32frombits(0x7f800001 | uint32(rng.Uint64())&0x801fffff)
		case 6:
			v[i] = math.Float32frombits(uint32(rng.Uint64()) & 0x807fffff)
		default:
			m := float32(math.Pow(10, -6+18*rng.Float64()))
			if k%2 == 0 {
				m = -m
			}
			v[i] = m
		}
	}
	return v
}

// Quick-check of Relu against reluGo over lengths 0..300 at unaligned
// offsets, with guard cells. No arithmetic happens, so every bit must
// match, NaN payloads included.
func TestReluBitwiseMatchesGoLoop(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	rng := xrand.New(101)
	const guard = 8
	for n := 0; n <= 300; n++ {
		for off := 0; off < 4; off++ {
			x := buf{nastyVec(rng, n+guard+4), off, n}
			want, got := cloneBuf(x), cloneBuf(x)
			reluGo(want.win())
			Relu(got.win())
			for i := range want.data {
				if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
					t.Fatalf("Relu n=%d off=%d: cell %d (window [%d,%d)) = %#08x, Go loop gives %#08x",
						n, off, i, x.lo, x.lo+n, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
				}
			}
		}
	}
}

// Quick-check of Gemm (the 4×16 AVX2 micro-kernel plus its axpy-loop
// tails, where the CPU has AVX2) against gemmGo. A carries ±0 (a third
// of its entries, so zero terms the kernel multiplies and the loop
// skips are everywhere), ±Inf, NaN and subnormals. B is finite, then
// holds one injected Inf or NaN that must send the call to gemmGo.
// Leading dimensions exceed the matrix widths and every slice starts at
// an offset 0–3; C's cells are NaN and its padding a sentinel before
// each call, so a missed cell or a write into the padding fails.
func TestGemmBitwiseMatchesGoLoop(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	rng := xrand.New(211)
	for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 37} {
		for _, k := range []int{0, 1, 7, 16, 33, 128} {
			for _, n := range []int{0, 1, 4, 15, 16, 17, 32, 40, 128} {
				off := rng.Intn(4)
				lda, ldb, ldc := k+1+rng.Intn(5), n+1+rng.Intn(5), n+1+rng.Intn(5)
				a := gemmOperand(rng, off+max(m-1, 0)*lda+k, true)
				b := gemmOperand(rng, off+max(k-1, 0)*ldb+n, false)
				checkGemm(t, m, n, k, off, a, lda, b, ldb, ldc)
				if k > 0 && n > 0 {
					// One Inf or NaN anywhere in B's k×n block.
					p, j := rng.Intn(k), rng.Intn(n)
					b[off+p*ldb+j] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(3)]
					checkGemm(t, m, n, k, off, a, lda, b, ldb, ldc)
				}
			}
		}
	}
}

func checkGemm(t *testing.T, m, n, k, off int, a []float32, lda int, b []float32, ldb, ldc int) {
	t.Helper()
	const sentinel = 1234.5
	c := make([]float32, off+m*ldc+4)
	for i := range c {
		c[i] = sentinel
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c[off+i*ldc+j] = float32(math.NaN())
		}
	}
	want := append([]float32(nil), c...)
	gemmGo(m, n, k, a[off:], lda, b[off:], ldb, want[off:], ldc)
	Gemm(m, n, k, a[off:], lda, b[off:], ldb, c[off:], ldc)
	for i := range want {
		if !sameBits(c[i], want[i]) {
			row, col := (i-off)/ldc, (i-off)%ldc
			t.Fatalf("Gemm m=%d n=%d k=%d off=%d lda=%d ldb=%d ldc=%d: cell %d (row %d col %d) = %v (%#08x), Go loop gives %v (%#08x)",
				m, n, k, off, lda, ldb, ldc, i, row, col, c[i], math.Float32bits(c[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// gemmOperand draws n values log-uniform in ±[1e-3, 1e3], about one in
// twelve ±0 and one in twenty subnormal. For A (forA) a third are ±0
// and about one in sixty each is ±Inf or NaN.
func gemmOperand(rng *xrand.RNG, n int, forA bool) []float32 {
	zeros := 5
	if forA {
		zeros = 20
	}
	v := make([]float32, n)
	for i := range v {
		switch k := rng.Intn(60); {
		case k < zeros:
			v[i] = float32(math.Copysign(0, float64(k%2)-0.5))
		case forA && k == 58:
			v[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case forA && k == 59:
			v[i] = float32(math.NaN())
		case k >= 56:
			v[i] = math.Float32frombits(uint32(rng.Uint64()) & 0x807fffff)
		default:
			v[i] = float32(math.Copysign(math.Pow(10, -3+6*rng.Float64()), float64(k%2)-0.5))
		}
	}
	return v
}

func TestGemmShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name          string
		m, n, k       int
		la, lb, lc    int
		lda, ldb, ldc int
	}{
		{"negative m", -1, 1, 1, 1, 1, 1, 1, 1, 1},
		{"lda < k", 2, 2, 2, 4, 4, 4, 1, 2, 2},
		{"ldc < n", 2, 2, 2, 4, 4, 4, 2, 2, 1},
		{"short a", 2, 2, 2, 3, 4, 4, 2, 2, 2},
		{"short b", 2, 2, 2, 4, 3, 4, 2, 2, 2},
		{"short c", 2, 2, 2, 4, 4, 3, 2, 2, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			Gemm(tc.m, tc.n, tc.k, make([]float32, tc.la), tc.lda, make([]float32, tc.lb), tc.ldb, make([]float32, tc.lc), tc.ldc)
		}()
	}
}

// The microbenchmarks time each element-wise kernel at the row widths
// the GCN layers use, the AVX2 assembly against the Go loop it
// replaces, and report arithmetic throughput. Run with
//
//	go test -run '^$' -bench 'Axpy|Add|AxpbyTo|Scal' -cpu 1 ./internal/blas/
func benchKernel(b *testing.B, flopsPerElem int, avx2, goLoop func(iters int, x, y, dst []float32)) {
	for _, n := range []int{4, 16, 37, 64, 128} {
		for _, impl := range []struct {
			name string
			run  func(iters int, x, y, dst []float32)
		}{{"avx2", avx2}, {"go", goLoop}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				if impl.name == "avx2" && !useAVX2 {
					b.Skip("AVX2 kernels not built or not supported by this CPU")
				}
				rng := xrand.New(1)
				x, y, dst := randVec(rng, n), randVec(rng, n), make([]float32, n)
				b.ResetTimer()
				impl.run(b.N, x, y, dst)
				b.ReportMetric(float64(flopsPerElem*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
			})
		}
	}
}

func BenchmarkAxpy(b *testing.B) {
	benchKernel(b, 2, func(iters int, x, y, _ []float32) {
		for i := 0; i < iters; i++ {
			axpyAVX2(1.0001, x, y)
		}
	}, func(iters int, x, y, _ []float32) {
		for i := 0; i < iters; i++ {
			axpyGo(1.0001, x, y)
		}
	})
}

func BenchmarkAdd(b *testing.B) {
	benchKernel(b, 1, func(iters int, x, y, _ []float32) {
		for i := 0; i < iters; i++ {
			addAVX2(x, y)
		}
	}, func(iters int, x, y, _ []float32) {
		for i := 0; i < iters; i++ {
			addGo(x, y)
		}
	})
}

func BenchmarkAxpbyTo(b *testing.B) {
	benchKernel(b, 3, func(iters int, x, y, dst []float32) {
		for i := 0; i < iters; i++ {
			axpbyToAVX2(dst, 0.5, x, -0.25, y)
		}
	}, func(iters int, x, y, dst []float32) {
		for i := 0; i < iters; i++ {
			axpbyToGo(dst, 0.5, x, -0.25, y)
		}
	})
}

func BenchmarkScal(b *testing.B) {
	benchKernel(b, 1, func(iters int, x, _, _ []float32) {
		for i := 0; i < iters; i++ {
			scalAVX2(1, x)
		}
	}, func(iters int, x, _, _ []float32) {
		for i := 0; i < iters; i++ {
			scalGo(1, x)
		}
	})
}
