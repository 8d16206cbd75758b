package bitset

// On amd64 the 16-word (b = 1024) kernels run in assembly when the CPU has
// AVX-512 VPOPCNTQ: a 1024-bit row is two 512-bit ANDs and two vector
// popcounts (kernels_amd64.s). The choice is made once, at start-up; the
// Go kernels stay the path everywhere else and the tests' reference. The
// wrappers below check every length and row id in Go before the assembly
// reads anything, with the panics the Go kernels raise, tell the race
// detector which words it will read (raceRead, kernels_race.go), and hand
// it at most asmChunk rows or ids per call so no call runs long without a
// preemption point.

// hasVPOPCNTQ reports whether the CPU and OS support the assembly kernels:
// AVX512F and AVX512_VPOPCNTDQ (CPUID leaf 7), and the OS saving the
// opmask and ZMM state (XCR0 bits 1, 2 and 5–7).
var hasVPOPCNTQ = detectVPOPCNTQ()

func detectVPOPCNTQ() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx512f, avx512vpopcntdq = 1 << 16, 1 << 14
	return ebx7&avx512f != 0 && ecx7&avx512vpopcntdq != 0
}

// asmChunk is the most rows or ids one assembly call covers.
const asmChunk = 256

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// andCount16AVX512 returns popcount(a AND b); len(a) = len(b) = 16.
//
//go:noescape
func andCount16AVX512(a, b []uint64) int

// andCountInto16AVX512 is andCountInto16 over len(out) rows;
// len(query) = 16 and len(rows) >= 16·len(out).
//
//go:noescape
func andCountInto16AVX512(query, rows []uint64, out []int32)

// andCountGatherPaged16AVX512 is andCountGatherPaged16 for len(out) ids,
// shift < 32, every id already checked against the page table.
//
//go:noescape
func andCountGatherPaged16AVX512(query []uint64, pages [][]uint64, shift uint, ids []int32, out []int32)

// andCount16Asm is AndCountWords4 on 16-word slices through the assembly
// kernel; AndCountWords4 has checked the lengths.
func andCount16Asm(a, b []uint64) int {
	raceRead(a)
	raceRead(b)
	return andCount16AVX512(a, b)
}

// andCountInto16Asm is andCountInto16 through the assembly kernel,
// asmChunk rows per call. AndCountInto has checked the geometry.
func andCountInto16Asm(query, corpus []uint64, out []int32) {
	raceRead(query)
	for lo := 0; lo < len(out); lo += asmChunk {
		hi := min(lo+asmChunk, len(out))
		raceRead(corpus[lo*16 : hi*16])
		andCountInto16AVX512(query[:16], corpus[lo*16:hi*16], out[lo:hi])
	}
}

// andCountGatherPaged16Asm is andCountGatherPaged16 through the assembly
// kernel, asmChunk ids per call, each chunk's ids checked against the page
// table first exactly as the Go kernel's row slicing checks them.
func andCountGatherPaged16Asm(query []uint64, pages [][]uint64, shift uint, ids []int32, out []int32) {
	// Every int32 id ≥ 0 is on page 0 once shift ≥ 31, whatever the shift;
	// clamping keeps the shift counts inside what x86 shifts honour.
	shift = min(shift, 31)
	mask := 1<<shift - 1
	raceRead(query)
	for lo := 0; lo < len(ids); lo += asmChunk {
		chunk := ids[lo:min(lo+asmChunk, len(ids))]
		for _, id := range chunk {
			base := (int(id) & mask) * 16
			raceRead(pages[int(id)>>shift][base : base+16])
		}
		andCountGatherPaged16AVX512(query[:16], pages, shift, chunk, out[lo:lo+len(chunk)])
	}
}
