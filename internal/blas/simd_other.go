//go:build !amd64 || purego

package blas

// useAVX2 is constant false where the assembly is not built, so the
// compiler drops every call to the forwarders below; they exist only
// so that blas.go compiles on every platform.
const useAVX2 = false

func axpyAVX2(a float32, x, y []float32) { axpyGo(a, x, y) }

func addAVX2(x, y []float32) { addGo(x, y) }

func axpbyToAVX2(dst []float32, a float32, x []float32, b float32, y []float32) {
	axpbyToGo(dst, a, x, b, y)
}

func scalAVX2(a float32, x []float32) { scalGo(a, x) }

func reluAVX2(x []float32) { reluGo(x) }

func gemm4x16AVX2(n16, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	gemmGo(4, n16, k, a, lda, b, ldb, c, ldc)
}
