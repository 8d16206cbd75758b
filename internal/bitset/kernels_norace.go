//go:build amd64 && !race

package bitset

// raceRead is kernels_race.go's hook; without the race detector it is a
// no-op, but its argument is still sliced, so the row checks stay.
func raceRead([]uint64) {}
