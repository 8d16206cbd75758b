package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// opKind is what one generated request does.
type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opOverwrite
	opDelete
)

func (k opKind) mutation() bool { return k != opQuery }

// op is one generated request. Payload indexes the held-out profiles: the
// query body, or the fingerprint an insert or overwrite uploads. Index is
// the op's position in its stream; mutations derive their target from it
// (see victims.pick), so two ops never aim at the same user.
type op struct {
	Kind    opKind
	Payload int
	Index   int
}

// stream is a deterministic op sequence: at(i) depends only on the seed
// and i, so workers may draw indexes in any order and a rerun with the
// same seed sends the same requests.
type stream struct {
	seed     uint64
	mutShare float64 // share of ops that mutate: half inserts, a quarter overwrites, a quarter deletes
	held     int
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s stream) at(i int) op {
	r := splitmix64(s.seed ^ splitmix64(uint64(i)))
	o := op{Kind: opQuery, Payload: int((r >> 20) % uint64(s.held)), Index: i}
	if float64(r%10_000)/10_000 < s.mutShare {
		switch (r >> 16) % 4 {
		case 0, 1:
			o.Kind = opInsert
		case 2:
			o.Kind = opOverwrite
		default:
			o.Kind = opDelete
		}
	}
	return o
}

// poissonSchedule returns the due times, as offsets from the phase start,
// of a Poisson arrival process of the given rate over dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// sample is one executed (or dropped) request. Times are offsets from the
// phase start. Open-loop latency runs from Due, not Start: a stall in the
// system delays the requests queued behind it, and that wait is theirs.
type sample struct {
	Op                       op
	Due, Release, Start, End time.Duration
	OK, Dropped              bool
}

func (s sample) latencyMs() float64 { return float64(s.End-s.Due) / float64(time.Millisecond) }

// outcome is what executing one op reports back to the runner.
type outcome struct {
	OK bool
}

// openBacklog bounds how many released requests may wait for a free
// connection; past it the generator drops (and counts) instead of hiding
// an unbounded queue in memory.
const openBacklog = 4096

// sleepUntil blocks the calling thread in the kernel until t. time.Sleep
// parks the goroutine on the runtime's poller, whose timeout has
// millisecond resolution: on an otherwise idle generator every request
// would leave up to 1 ms late, which at these latencies is the measurement.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early (interrupted) return loops
	}
}

const (
	prSetTimerslack = 29 // PR_SET_TIMERSLACK, <linux/prctl.h>
	schedOther      = 0  // SCHED_OTHER, <linux/sched.h>
	schedFIFO       = 1  // SCHED_FIFO
)

// setScheduler sets the calling thread's scheduling policy; failure (no
// CAP_SYS_NICE) leaves it as it was.
func setScheduler(policy int, priority int32) {
	syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&priority)))
}

// runOpen fires ops[i] at sched[i] regardless of how the system keeps up.
// One dispatcher sleeps to each due time and hands the op to a fixed pool
// of workers (one keep-alive connection each).
func runOpen(sched []time.Duration, ops func(i int) op, workers int, exec func(worker int, o op) outcome) []sample {
	samples := make([]sample, len(sched))
	jobs := make(chan int, openBacklog)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				s := &samples[i]
				s.Start = time.Since(start)
				out := exec(w, s.Op)
				s.End = time.Since(start)
				s.OK = out.OK
			}
		}(w)
	}
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		// The dispatcher owns its thread for the phase and makes it wake on
		// time: 1 ns timer slack instead of the default 50 µs, and — where
		// the kernel allows it (CAP_SYS_NICE) — the lowest real-time
		// priority, because a normal thread woken while the server fills
		// both cores waits out the running thread's slice, ~0.7 ms at p99
		// on the 2-core box this was written on. The thread sleeps except
		// for one channel send per request. Both settings are undone on the
		// way out; without the capability the lateness is simply reported.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		defer syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0)
		setScheduler(schedFIFO, 1)
		defer setScheduler(schedOther, 0)
		for i, due := range sched {
			s := &samples[i]
			s.Op, s.Due = ops(i), due
			sleepUntil(start.Add(due))
			s.Release = time.Since(start)
			select {
			case jobs <- i:
			default:
				s.Dropped = true
			}
		}
	}()
	<-dispatched
	close(jobs)
	wg.Wait()
	return samples
}

// runClosed keeps `workers` callers busy for dur: each sends its next op
// only after the previous one completed, drawing indexes from base
// upwards. Due equals Start, so latency is service time.
func runClosed(dur time.Duration, ops func(i int) op, base, workers int, exec func(worker int, o op) outcome) []sample {
	var next atomic.Int64
	next.Store(int64(base))
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < dur {
				s := sample{Op: ops(int(next.Add(1) - 1))}
				s.Start = time.Since(start)
				s.Due, s.Release = s.Start, s.Start
				out := exec(w, s.Op)
				s.End = time.Since(start)
				s.OK = out.OK
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// phaseStats summarises one phase's samples.
type phaseStats struct {
	Attempted, Failed, Dropped int
	QueryMs, MutateMs          []float64 // latencies of successful ops, in arrival order
	LateUs                     []float64 // dispatcher lateness (Release − Due)
	Elapsed                    time.Duration
}

func summarize(samples []sample) phaseStats {
	var st phaseStats
	for _, s := range samples {
		st.Attempted++
		if s.Dropped {
			st.Dropped++
			st.Failed++
			continue
		}
		st.LateUs = append(st.LateUs, float64(s.Release-s.Due)/float64(time.Microsecond))
		if s.End > st.Elapsed {
			st.Elapsed = s.End
		}
		if !s.OK {
			st.Failed++
			continue
		}
		if s.Op.Kind.mutation() {
			st.MutateMs = append(st.MutateMs, s.latencyMs())
		} else {
			st.QueryMs = append(st.QueryMs, s.latencyMs())
		}
	}
	return st
}
