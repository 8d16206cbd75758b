#include "textflag.h"

// AVX-512 kernels for the paper's 16-word (1024-bit) row. A row is two
// 512-bit halves: each is ANDed with the matching query half and counted
// with VPOPCNTQ, the two vectors of eight per-word counts are added (each
// lane at most 128, so it fits a byte), narrowed to eight bytes with
// VPMOVQB and summed with VPSADBW against zero. Z0/Z1 hold the query
// halves for a whole call; X4 stays zero. Callers check every length and
// row id first; VZEROUPPER on the way out keeps the upper state clean for
// the SSE code the compiler emits.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func andCount16AVX512(a, b []uint64) int
TEXT ·andCount16AVX512(SB), NOSPLIT, $0-56
	MOVQ      a_base+0(FP), AX
	MOVQ      b_base+24(FP), BX
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	VPANDQ    (BX), Z0, Z0
	VPANDQ    64(BX), Z1, Z1
	VPOPCNTQ  Z0, Z0
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z1, Z0, Z0
	VPMOVQB   Z0, X0
	VPXOR     X4, X4, X4
	VPSADBW   X4, X0, X0
	VMOVQ     X0, AX
	VZEROUPPER
	MOVQ      AX, ret+48(FP)
	RET

// func andCountInto16AVX512(query, rows []uint64, out []int32)
TEXT ·andCountInto16AVX512(SB), NOSPLIT, $0-72
	MOVQ      query_base+0(FP), AX
	MOVQ      rows_base+24(FP), SI
	MOVQ      out_base+48(FP), DI
	MOVQ      out_len+56(FP), CX
	TESTQ     CX, CX
	JEQ       intoDone
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	VPXOR     X4, X4, X4

intoLoop:
	VPANDQ   (SI), Z0, Z2
	VPANDQ   64(SI), Z1, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z2
	VPMOVQB  Z2, X2
	VPSADBW  X4, X2, X2
	VMOVD    X2, (DI)
	ADDQ     $128, SI
	ADDQ     $4, DI
	DECQ     CX
	JNZ      intoLoop
	VZEROUPPER

intoDone:
	RET

// func andCountGatherPaged16AVX512(query []uint64, pages [][]uint64, shift uint, ids []int32, out []int32)
//
// Row id lives in pages[id>>shift] at row id&(1<<shift-1); shift < 32.
TEXT ·andCountGatherPaged16AVX512(SB), NOSPLIT, $0-104
	MOVQ      query_base+0(FP), AX
	MOVQ      pages_base+24(FP), SI
	MOVQ      shift+48(FP), CX
	MOVQ      ids_base+56(FP), BX
	MOVQ      out_base+80(FP), DI
	MOVQ      out_len+88(FP), DX
	TESTQ     DX, DX
	JEQ       gatherDone
	MOVQ      $1, R8
	SHLQ      CX, R8
	DECQ      R8
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	VPXOR     X4, X4, X4
	XORQ      R9, R9

gatherLoop:
	MOVLQSX  (BX)(R9*4), R10
	MOVQ     R10, R11
	SHRQ     CX, R11
	ANDQ     R8, R10
	SHLQ     $7, R10
	LEAQ     (R11)(R11*2), R11
	ADDQ     (SI)(R11*8), R10
	VPANDQ   (R10), Z0, Z2
	VPANDQ   64(R10), Z1, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z2
	VPMOVQB  Z2, X2
	VPSADBW  X4, X2, X2
	VMOVD    X2, (DI)(R9*4)
	INCQ     R9
	CMPQ     R9, DX
	JLT      gatherLoop
	VZEROUPPER

gatherDone:
	RET
