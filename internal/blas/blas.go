// Package blas provides the small set of single-precision kernels the
// CBM multiplication pipeline and the GCN layers are built from. They
// stand in for the Intel MKL routines (axpy, sgemm and friends) the
// paper uses.
//
// The element-wise kernels (Axpy, Add, AxpbyTo, Scal, Relu) and the
// dense product Gemm run AVX2 Go assembly on amd64 CPUs whose OS saves
// the YMM registers, and Go loops (axpyGo, gemmGo and friends)
// everywhere else and under the purego build tag. The assembly
// multiplies and adds in separate instructions (never FMA, which rounds
// once) in the operand order the compiler uses for the Go loops, so
// every result is bitwise identical on both paths; only the payload of
// a NaN produced from two NaN operands may differ, as it does between
// lanes of the Go loops themselves. The reductions (Dot, Asum) stay
// scalar Go: vectorizing them would reassociate the sum.
package blas

import "fmt"

// Axpy computes y[i] += a*x[i] for all i. x and y must have equal
// length; it panics otherwise (mirrors the BLAS contract). a == 0 is a
// no-op, even where x holds Inf or NaN. x and y may be the same slice
// but must not partially overlap.
//
//cbm:hotpath
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Axpy length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	if a == 0 || len(x) == 0 {
		return
	}
	if useAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// Add computes y[i] += x[i] — the a == 1 axpy specialization used by
// the CBM update stage for unscaled (AX) products.
//
//cbm:hotpath
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Add length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	if useAVX2 {
		addAVX2(x, y)
		return
	}
	addGo(x, y)
}

// AxpbyTo computes dst[i] = a*x[i] + b*y[i]. dst may be the same slice
// as x or y, but no two of the slices may partially overlap.
// It is the fused kernel of the DADX update stage
// (dst = d_x*(parent/d_p) + d_x*child, Eq. 6 of the paper).
//
//cbm:hotpath
func AxpbyTo(dst []float32, a float32, x []float32, b float32, y []float32) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("blas: AxpbyTo length mismatch: len(dst)=%d len(x)=%d len(y)=%d", len(dst), len(x), len(y)))
	}
	if useAVX2 {
		axpbyToAVX2(dst, a, x, b, y)
		return
	}
	axpbyToGo(dst, a, x, b, y)
}

// Scal computes x[i] *= a.
//
//cbm:hotpath
func Scal(a float32, x []float32) {
	if useAVX2 {
		scalAVX2(a, x)
		return
	}
	scalGo(a, x)
}

// Relu clamps every negative element of x to +0 in place, exactly as
// `if v < 0 { v = 0 }` does: −0, NaN and +Inf keep their bits.
//
//cbm:hotpath
func Relu(x []float32) {
	if useAVX2 {
		reluAVX2(x)
		return
	}
	reluGo(x)
}

// Gemm overwrites C with the product A·B of row-major matrices: A is
// m×k with leading dimension (row stride) lda, B is k×n with ldb, and C
// is m×n with ldc. C must not overlap A or B. The result is bitwise
// that of gemmGo, the zero-skipping axpy loop: row i of C starts at +0
// and gains a[i,p]·B[p,:] for p = 0, 1, …, k−1 wherever a[i,p] != 0.
//
// Where the AVX2 kernels run and B is free of Inf and NaN, Gemm covers
// the largest block of whole 4-row × 16-column tiles with a register-
// blocked micro-kernel that multiplies every A entry, zeros included,
// and leaves the remaining rows and columns to gemmGo. Adding ±0 to an
// accumulator that starts at +0 never changes it (the sum can only be
// −0 when both addends are), so including a zero term gives the bits
// skipping it does; with an Inf or NaN in B, 0·Inf would turn a
// skipped term into NaN, so such calls run gemmGo throughout. The
// finiteness check reads k·n elements of B once per call.
//
//cbm:hotpath
func Gemm(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if m < 0 || n < 0 || k < 0 || lda < k || ldb < n || ldc < n {
		panic(fmt.Sprintf("blas: Gemm bad shape: m=%d n=%d k=%d lda=%d ldb=%d ldc=%d", m, n, k, lda, ldb, ldc))
	}
	if m == 0 || n == 0 {
		return
	}
	if len(c) < (m-1)*ldc+n || k > 0 && (len(a) < (m-1)*lda+k || len(b) < (k-1)*ldb+n) {
		panic(fmt.Sprintf("blas: Gemm slice out of range: m=%d n=%d k=%d: len(a)=%d lda=%d, len(b)=%d ldb=%d, len(c)=%d ldc=%d",
			m, n, k, len(a), lda, len(b), ldb, len(c), ldc))
	}
	m4, n16 := m&^3, n&^15
	if !useAVX2 || m4 == 0 || n16 == 0 || k == 0 || !finite(b, k, n16, ldb) {
		gemmGo(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	for i := 0; i < m4; i += 4 {
		gemm4x16AVX2(n16, k, a[i*lda:], lda, b, ldb, c[i*ldc:], ldc)
	}
	if n16 < n {
		gemmGo(m4, n-n16, k, a, lda, b[n16:], ldb, c[n16:], ldc)
	}
	if m4 < m {
		gemmGo(m-m4, n, k, a[m4*lda:], lda, b, ldb, c[m4*ldc:], ldc)
	}
}

// finite reports whether the k×n block of b with leading dimension ldb
// holds no Inf or NaN.
//
//cbm:hotpath
func finite(b []float32, k, n, ldb int) bool {
	for p := 0; p < k; p++ {
		for _, v := range b[p*ldb : p*ldb+n] {
			if v-v != 0 { // NaN for ±Inf and NaN, +0 for every finite v
				return false
			}
		}
	}
	return true
}

// gemmGo is Gemm's fallback and oracle: zero each row of C, then add
// a[i,p]·B[p,:] for every nonzero a[i,p] in ascending p.
//
//cbm:hotpath
func gemmGo(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n : i*ldc+n]
		clear(crow)
		for p, av := range a[i*lda : i*lda+k] {
			if av != 0 {
				Axpy(av, b[p*ldb:p*ldb+n], crow)
			}
		}
	}
}

// The Go loops below are the element-wise kernels off amd64, under the
// purego tag and on CPUs without AVX2, and the oracle the assembly is
// tested against. They are unrolled by eight — with a four-wide step
// before the scalar tail, so remainders shorter than a full unroll
// still run mostly unrolled — so the compiler can keep the operands in
// registers and hoist bounds checks. The unrolls never reorder or
// reassociate per-element operations, so results are bitwise identical
// to the plain loop.

//cbm:hotpath
func axpyGo(a float32, x, y []float32) {
	i := 0
	// Unrolled main loop; the slice re-slice pins a common bound so the
	// compiler eliminates per-element bounds checks.
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
		ys[4] += a * xs[4]
		ys[5] += a * xs[5]
		ys[6] += a * xs[6]
		ys[7] += a * xs[7]
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
		i += 4
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

//cbm:hotpath
func addGo(x, y []float32) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += xs[0]
		ys[1] += xs[1]
		ys[2] += xs[2]
		ys[3] += xs[3]
		ys[4] += xs[4]
		ys[5] += xs[5]
		ys[6] += xs[6]
		ys[7] += xs[7]
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += xs[0]
		ys[1] += xs[1]
		ys[2] += xs[2]
		ys[3] += xs[3]
		i += 4
	}
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

//cbm:hotpath
func axpbyToGo(dst []float32, a float32, x []float32, b float32, y []float32) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ds := dst[i : i+8 : i+8]
		ds[0] = a*xs[0] + b*ys[0]
		ds[1] = a*xs[1] + b*ys[1]
		ds[2] = a*xs[2] + b*ys[2]
		ds[3] = a*xs[3] + b*ys[3]
		ds[4] = a*xs[4] + b*ys[4]
		ds[5] = a*xs[5] + b*ys[5]
		ds[6] = a*xs[6] + b*ys[6]
		ds[7] = a*xs[7] + b*ys[7]
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ds := dst[i : i+4 : i+4]
		ds[0] = a*xs[0] + b*ys[0]
		ds[1] = a*xs[1] + b*ys[1]
		ds[2] = a*xs[2] + b*ys[2]
		ds[3] = a*xs[3] + b*ys[3]
		i += 4
	}
	for ; i < len(x); i++ {
		dst[i] = a*x[i] + b*y[i]
	}
}

//cbm:hotpath
func scalGo(a float32, x []float32) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		xs[0] *= a
		xs[1] *= a
		xs[2] *= a
		xs[3] *= a
		xs[4] *= a
		xs[5] *= a
		xs[6] *= a
		xs[7] *= a
	}
	if i+4 <= len(x) {
		xs := x[i : i+4 : i+4]
		xs[0] *= a
		xs[1] *= a
		xs[2] *= a
		xs[3] *= a
		i += 4
	}
	for ; i < len(x); i++ {
		x[i] *= a
	}
}

//cbm:hotpath
func reluGo(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// Dot returns the inner product of x and y. Four independent
// accumulators break the floating-point dependency chain.
//
//cbm:hotpath
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Dot length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		s0 += xs[0] * ys[0]
		s1 += xs[1] * ys[1]
		s2 += xs[2] * ys[2]
		s3 += xs[3] * ys[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Asum returns the sum of absolute values of x.
//
//cbm:hotpath
func Asum(x []float32) float32 {
	var s float32
	for _, v := range x {
		if v < 0 {
			s -= v
		} else {
			s += v
		}
	}
	return s
}

// Copy copies x into y.
//
//cbm:hotpath
func Copy(x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Copy length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	copy(y, x)
}

// Fill sets every element of x to v.
//
//cbm:hotpath
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}
