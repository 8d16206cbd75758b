package main

import (
	"math/bits"
	"sync"
	"time"
)

// refWork is frozen reference work of the kind the program does per query:
// an AND+popcount scan over a corpus-sized array, then popcounts of rows
// gathered at random from it. It lives in the benchmark, so no change to
// the program can make it faster or slower; only the machine can.
//
// The machines this benchmark runs on change speed under it: for minutes
// at a time memory-bound code — this program's kind — runs 15–25% slower,
// with nothing in the guest to show for it. Every run therefore takes
// readings of this work between its measured slices and scales its times by
// refNominal over their median: what they would have been had the machine
// run the reference at its nominal speed. Over 24 runs of
// serve-read-100k on the box this was written on that cut the spread of
// query_p50_ms from 0.11 to 0.065 and of scan_p50_ms from 0.16 to 0.12.
type refWork struct {
	words []uint64
	ids   []int32
}

const (
	refRows   = 100_000
	refStride = 16
	refGather = 20_000

	// refNominal is one pass's seconds on the 2-core machine the frozen
	// rates were derived on, in its quiet state. Only ratios of readings
	// matter to a comparison between two commits; the constant keeps the
	// reported figures in the neighbourhood of real milliseconds.
	refNominal = 2.10e-3

	refReadingFor = 100 * time.Millisecond
)

var (
	refOnce sync.Once
	theRef  *refWork
)

func reference() *refWork {
	refOnce.Do(func() {
		r := &refWork{words: make([]uint64, refRows*refStride), ids: make([]int32, refGather)}
		x := uint64(1)
		for i := range r.words {
			x = splitmix64(x)
			r.words[i] = x
		}
		for i := range r.ids {
			x = splitmix64(x)
			r.ids[i] = int32(x % refRows)
		}
		theRef = r
	})
	return theRef
}

// pass runs the reference work once and returns its seconds.
func (r *refWork) pass() float64 {
	q := r.words[:refStride]
	t := time.Now()
	c := 0
	for row := 0; row < refRows; row++ {
		w := r.words[row*refStride : row*refStride+refStride]
		for j, v := range w {
			c += bits.OnesCount64(v & q[j])
		}
	}
	for _, id := range r.ids {
		w := r.words[int(id)*refStride : int(id)*refStride+refStride]
		for j, v := range w {
			c += bits.OnesCount64(v & q[j])
		}
	}
	sink += c
	return time.Since(t).Seconds()
}

// speed takes one reading — the median pass over refReadingFor — and
// returns the machine's speed relative to nominal: below 1 when it runs
// slow. Multiply a time by it, divide a rate by it.
func (r *refWork) speed() float64 {
	var xs []float64
	for start := time.Now(); time.Since(start) < refReadingFor; {
		xs = append(xs, r.pass())
	}
	return refNominal / median(xs)
}
