//go:build amd64 && !purego

#include "textflag.h"

// The element-wise kernels below reproduce the Go loops in blas.go bit
// for bit. Each product is a VMULPS and each sum a VADDPS, never a
// fused multiply-add, and each keeps the operand order the compiler
// emits for the Go loop (x*a, then product+y), which decides the
// result when both operands are NaN. Every kernel walks the slices in
// 32-wide blocks (four YMM registers), then single 8-wide YMM steps,
// one 4-wide XMM step, and a VEX-encoded scalar tail: legacy-SSE
// instructions after 256-bit code would pay the AVX–SSE transition
// penalty. All loads of a block precede its stores, so dst may be the
// same slice as a source.

// func axpyAVX2(a float32, x, y []float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         x_len+16(FP), CX
	CMPQ         CX, $32
	JB           axpy8

axpy32:
	VMOVUPS 0(SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  0(DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, 0(DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     axpy32

axpy8:
	CMPQ    CX, $8
	JB      axpy4
	VMOVUPS 0(SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  0(DI), Y1, Y1
	VMOVUPS Y1, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy4:
	CMPQ    CX, $4
	JB      axpy1
	VMOVUPS 0(SI), X1
	VMULPS  X0, X1, X1
	VADDPS  0(DI), X1, X1
	VMOVUPS X1, 0(DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

axpy1:
	TESTQ  CX, CX
	JZ     axpyDone
	VMOVSS 0(SI), X1
	VMULSS X0, X1, X1
	VADDSS 0(DI), X1, X1
	VMOVSS X1, 0(DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    axpy1

axpyDone:
	VZEROUPPER
	RET

// func addAVX2(x, y []float32)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX
	CMPQ CX, $32
	JB   add8

add32:
	VMOVUPS 0(DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	VADDPS  0(SI), Y1, Y1
	VADDPS  32(SI), Y2, Y2
	VADDPS  64(SI), Y3, Y3
	VADDPS  96(SI), Y4, Y4
	VMOVUPS Y1, 0(DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     add32

add8:
	CMPQ    CX, $8
	JB      add4
	VMOVUPS 0(DI), Y1
	VADDPS  0(SI), Y1, Y1
	VMOVUPS Y1, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     add8

add4:
	CMPQ    CX, $4
	JB      add1
	VMOVUPS 0(DI), X1
	VADDPS  0(SI), X1, X1
	VMOVUPS X1, 0(DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

add1:
	TESTQ  CX, CX
	JZ     addDone
	VMOVSS 0(DI), X1
	VADDSS 0(SI), X1, X1
	VMOVSS X1, 0(DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func axpbyToAVX2(dst []float32, a float32, x []float32, b float32, y []float32)
TEXT ·axpbyToAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	VBROADCASTSS a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	VBROADCASTSS b+56(FP), Y1
	MOVQ         y_base+64(FP), BX
	MOVQ         x_len+40(FP), CX
	CMPQ         CX, $32
	JB           axpby8

axpby32:
	VMOVUPS 0(SI), Y2
	VMOVUPS 32(SI), Y3
	VMOVUPS 64(SI), Y4
	VMOVUPS 96(SI), Y5
	VMOVUPS 0(BX), Y6
	VMOVUPS 32(BX), Y7
	VMOVUPS 64(BX), Y8
	VMOVUPS 96(BX), Y9
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VMULPS  Y0, Y5, Y5
	VMULPS  Y1, Y6, Y6
	VMULPS  Y1, Y7, Y7
	VMULPS  Y1, Y8, Y8
	VMULPS  Y1, Y9, Y9
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VMOVUPS Y2, 0(DI)
	VMOVUPS Y3, 32(DI)
	VMOVUPS Y4, 64(DI)
	VMOVUPS Y5, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, BX
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     axpby32

axpby8:
	CMPQ    CX, $8
	JB      axpby4
	VMOVUPS 0(SI), Y2
	VMOVUPS 0(BX), Y6
	VMULPS  Y0, Y2, Y2
	VMULPS  Y1, Y6, Y6
	VADDPS  Y6, Y2, Y2
	VMOVUPS Y2, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpby8

axpby4:
	CMPQ    CX, $4
	JB      axpby1
	VMOVUPS 0(SI), X2
	VMOVUPS 0(BX), X6
	VMULPS  X0, X2, X2
	VMULPS  X1, X6, X6
	VADDPS  X6, X2, X2
	VMOVUPS X2, 0(DI)
	ADDQ    $16, SI
	ADDQ    $16, BX
	ADDQ    $16, DI
	SUBQ    $4, CX

axpby1:
	TESTQ  CX, CX
	JZ     axpbyDone
	VMOVSS 0(SI), X2
	VMOVSS 0(BX), X6
	VMULSS X0, X2, X2
	VMULSS X1, X6, X6
	VADDSS X6, X2, X2
	VMOVSS X2, 0(DI)
	ADDQ   $4, SI
	ADDQ   $4, BX
	ADDQ   $4, DI
	DECQ   CX
	JMP    axpby1

axpbyDone:
	VZEROUPPER
	RET

// func scalAVX2(a float32, x []float32)
TEXT ·scalAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	CMPQ         CX, $32
	JB           scal8

scal32:
	VMOVUPS 0(SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VMOVUPS Y1, 0(SI)
	VMOVUPS Y2, 32(SI)
	VMOVUPS Y3, 64(SI)
	VMOVUPS Y4, 96(SI)
	ADDQ    $128, SI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     scal32

scal8:
	CMPQ    CX, $8
	JB      scal4
	VMOVUPS 0(SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, 0(SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     scal8

scal4:
	CMPQ    CX, $4
	JB      scal1
	VMOVUPS 0(SI), X1
	VMULPS  X0, X1, X1
	VMOVUPS X1, 0(SI)
	ADDQ    $16, SI
	SUBQ    $4, CX

scal1:
	TESTQ  CX, CX
	JZ     scalDone
	VMOVSS 0(SI), X1
	VMULSS X0, X1, X1
	VMOVSS X1, 0(SI)
	ADDQ   $4, SI
	DECQ   CX
	JMP    scal1

scalDone:
	VZEROUPPER
	RET

// func reluAVX2(x []float32)
//
// VCMPPS with predicate LT_OQ (0x11) sets a lane's mask only when the
// element is ordered and below zero, so −0, NaN and +Inf keep a clear
// mask; VANDNPS then clears exactly the masked lanes to +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	CMPQ   CX, $32
	JB     relu8

relu32:
	VMOVUPS 0(SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VCMPPS  $0x11, Y0, Y1, Y5
	VCMPPS  $0x11, Y0, Y2, Y6
	VCMPPS  $0x11, Y0, Y3, Y7
	VCMPPS  $0x11, Y0, Y4, Y8
	VANDNPS Y1, Y5, Y1
	VANDNPS Y2, Y6, Y2
	VANDNPS Y3, Y7, Y3
	VANDNPS Y4, Y8, Y4
	VMOVUPS Y1, 0(SI)
	VMOVUPS Y2, 32(SI)
	VMOVUPS Y3, 64(SI)
	VMOVUPS Y4, 96(SI)
	ADDQ    $128, SI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     relu32

relu8:
	CMPQ    CX, $8
	JB      relu4
	VMOVUPS 0(SI), Y1
	VCMPPS  $0x11, Y0, Y1, Y5
	VANDNPS Y1, Y5, Y1
	VMOVUPS Y1, 0(SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     relu8

relu4:
	CMPQ    CX, $4
	JB      relu1
	VMOVUPS 0(SI), X1
	VCMPPS  $0x11, X0, X1, X5
	VANDNPS X1, X5, X1
	VMOVUPS X1, 0(SI)
	ADDQ    $16, SI
	SUBQ    $4, CX

relu1:
	TESTQ   CX, CX
	JZ      reluDone
	VMOVSS  0(SI), X1
	VCMPSS  $0x11, X0, X1, X5
	VANDNPS X1, X5, X1
	VMOVSS  X1, 0(SI)
	ADDQ    $4, SI
	DECQ    CX
	JMP     relu1

reluDone:
	VZEROUPPER
	RET

// func gemm4x16AVX2(n16, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
//
// Register-blocked micro-kernel for a strip of 4 rows of C, one 4×16
// tile at a time. The tile lives in eight YMM accumulators (Y0–Y7, two
// per row) that start at +0. For each p = 0 … k−1 in order, row p of
// B's 16 columns is loaded once (Y8, Y9) and each row's a[r,p] is
// broadcast, then every accumulator gains the product as VMULPS b·a
// followed by VADDPS product+acc: the operations and operand order of
// axpyAVX2 and axpyGo, term for term. The tile is stored once, after
// the last p. B is read in place, without packing.
TEXT ·gemm4x16AVX2(SB), NOSPLIT, $0-112
	MOVQ n16+0(FP), DX
	MOVQ a_base+16(FP), SI
	MOVQ lda+40(FP), R8
	MOVQ b_base+48(FP), BX
	MOVQ ldb+72(FP), R10
	MOVQ c_base+80(FP), AX
	MOVQ ldc+104(FP), R11
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	SHLQ $2, R10
	SHLQ $2, R11

gemmTile:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, R13
	MOVQ   BX, R12
	MOVQ   k+8(FP), CX

gemmK:
	VMOVUPS      0(R12), Y8
	VMOVUPS      32(R12), Y9
	VBROADCASTSS 0(R13), Y10
	VBROADCASTSS (R13)(R8*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y0, Y12, Y0
	VADDPS       Y1, Y13, Y1
	VADDPS       Y2, Y14, Y2
	VADDPS       Y3, Y15, Y3
	VBROADCASTSS (R13)(R8*2), Y10
	VBROADCASTSS (R13)(R9*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y4, Y12, Y4
	VADDPS       Y5, Y13, Y5
	VADDPS       Y6, Y14, Y6
	VADDPS       Y7, Y15, Y7
	ADDQ         $4, R13
	ADDQ         R10, R12
	DECQ         CX
	JNZ          gemmK

	VMOVUPS Y0, 0(AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, (AX)(R11*1)
	VMOVUPS Y3, 32(AX)(R11*1)
	VMOVUPS Y4, (AX)(R11*2)
	VMOVUPS Y5, 32(AX)(R11*2)
	LEAQ    (AX)(R11*2), R13
	VMOVUPS Y6, (R13)(R11*1)
	VMOVUPS Y7, 32(R13)(R11*1)
	ADDQ    $64, AX
	ADDQ    $64, BX
	SUBQ    $16, DX
	JNZ     gemmTile
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
