//go:build !amd64

package bitset

// Without the amd64 assembly (kernels_amd64.go) the Go kernels are the only
// path: hasVPOPCNTQ is a constant false, so the calls below compile away.
const hasVPOPCNTQ = false

func andCount16Asm(a, b []uint64) int { panic("bitset: no assembly kernels on this architecture") }

func andCountInto16Asm(query, corpus []uint64, out []int32) {
	panic("bitset: no assembly kernels on this architecture")
}

func andCountGatherPaged16Asm(query []uint64, pages [][]uint64, shift uint, ids []int32, out []int32) {
	panic("bitset: no assembly kernels on this architecture")
}
