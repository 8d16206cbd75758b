//go:build amd64 && race

package bitset

import (
	"runtime"
	"unsafe"
)

// raceRead tells the race detector about the words an assembly kernel is
// about to read, which it cannot see on its own.
func raceRead(words []uint64) {
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(words)), 8*len(words))
}
