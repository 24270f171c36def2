//go:build amd64 && !purego

package blas

// useAVX2 selects the assembly kernels. It is set once, when the
// package initializes, and never changes.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7 EBX
// bit 5) and the OS saves the YMM registers across context switches
// (CPUID leaf 1 ECX bits OSXSAVE and AVX, then XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// The AVX2 kernels assume the exported wrappers' checks: equal lengths,
// for axpyAVX2 a != 0, and for gemm4x16AVX2 n16 a positive multiple of
// 16, k > 0 and slices that reach the last element of the 4×n16 tile
// strip (3·ldc + n16 elements of c, 3·lda + k of a, (k−1)·ldb + n16 of
// b).

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func addAVX2(x, y []float32)

//go:noescape
func axpbyToAVX2(dst []float32, a float32, x []float32, b float32, y []float32)

//go:noescape
func scalAVX2(a float32, x []float32)

//go:noescape
func reluAVX2(x []float32)

// gemm4x16AVX2 overwrites rows 0–3, columns 0 to n16−1 of c with the
// product of rows 0–3 of a and the k×n16 block of b, one 4×16 tile at
// a time.
//
//go:noescape
func gemm4x16AVX2(n16, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
