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
