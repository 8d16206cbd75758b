package router

import (
	"testing"
	"time"

	"goldfinger/internal/obs"
)

// fakeClock lets breaker tests step time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(cfg, obs.NewWindow(cfg.window()), nil, nil)
	b.now = clk.now
	return b, clk
}

func TestBreakerConsecutiveFailsTrip(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{ConsecutiveFails: 3})
	for i := 0; i < 2; i++ {
		b.Record(time.Millisecond, true, false)
		if b.State() != BreakerClosed {
			t.Fatalf("tripped after %d consecutive failures, want 3", i+1)
		}
	}
	b.Record(time.Millisecond, true, false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Error("open breaker allowed a request before OpenFor elapsed")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{ConsecutiveFails: 3, MinSamples: 100})
	for i := 0; i < 10; i++ {
		b.Record(time.Millisecond, true, false)
		b.Record(time.Millisecond, true, false)
		b.Record(time.Millisecond, false, false)
	}
	if b.State() != BreakerClosed {
		t.Error("interleaved successes should keep the breaker closed")
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{
		Window: 8, MinSamples: 4, ErrorRate: 0.5, ConsecutiveFails: 100,
	})
	// Alternate ok/fail: at the 4th sample the window holds 2/4 failures —
	// exactly the 0.5 threshold.
	b.Record(time.Millisecond, false, false)
	b.Record(time.Millisecond, true, false)
	b.Record(time.Millisecond, false, false)
	if b.State() != BreakerClosed {
		t.Fatal("tripped below MinSamples")
	}
	b.Record(time.Millisecond, true, false)
	if b.State() != BreakerOpen {
		t.Fatalf("state at 50%% windowed error rate = %v, want open", b.State())
	}
}

func TestBreakerP99LatencyTrip(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{
		Window: 8, MinSamples: 4, ConsecutiveFails: 100, P99Latency: 50 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		b.Record(100*time.Millisecond, false, false)
	}
	if b.State() != BreakerClosed {
		t.Fatal("latency condition tripped below MinSamples")
	}
	b.Record(100*time.Millisecond, false, false)
	if b.State() != BreakerOpen {
		t.Fatalf("state with windowed p99 at 100ms ≥ 50ms threshold = %v, want open", b.State())
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFails: 1, OpenFor: 10 * time.Second})
	b.Record(time.Millisecond, true, false)
	if b.State() != BreakerOpen {
		t.Fatal("did not trip")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("allowed while open")
	}
	clk.advance(10 * time.Second)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("Allow after OpenFor = (%v, %v), want probe admission", ok, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Probes are bounded: a second caller is refused while the probe flies.
	if ok, _ := b.Allow(); ok {
		t.Error("second probe admitted with HalfOpenProbes=1")
	}
	// Probe success re-closes.
	b.Record(time.Millisecond, false, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Errorf("Allow after re-close = (%v, %v), want plain admission", ok, probe)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFails: 1, OpenFor: time.Second})
	b.Record(time.Millisecond, true, false)
	clk.advance(time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("probe not admitted")
	}
	b.Record(time.Millisecond, true, true)
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	// The open interval restarts: no probe until OpenFor elapses again.
	if ok, _ := b.Allow(); ok {
		t.Error("probe admitted immediately after a failed probe")
	}
	clk.advance(time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Error("probe not re-admitted after second OpenFor")
	}
}

func TestBreakerForgetReleasesProbeSlot(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFails: 1, OpenFor: time.Second})
	b.Record(time.Millisecond, true, false)
	clk.advance(time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("probe not admitted")
	}
	b.Forget(true)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Error("probe slot not released by Forget; breaker would stick half-open")
	}
}

func TestBreakerStragglersIgnoredAfterTrip(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFails: 2, OpenFor: time.Second})
	b.Record(time.Millisecond, true, false)
	b.Record(time.Millisecond, true, false) // trips
	// Stragglers from the pre-trip regime land while open and half-open;
	// neither may decide anything.
	b.Record(time.Millisecond, false, false)
	if b.State() != BreakerOpen {
		t.Fatal("straggler success while open changed state")
	}
	clk.advance(time.Second)
	b.Allow() // half-open, probe out
	b.Record(time.Millisecond, true, false)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("straggler failure decided the half-open transition: %v", b.State())
	}
	b.Record(time.Millisecond, false, true)
	if b.State() != BreakerClosed {
		t.Fatal("probe success did not re-close")
	}
}

func TestBreakerRetryAfter(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFails: 1, OpenFor: 10 * time.Second})
	if got := b.RetryAfter(); got != time.Second {
		t.Errorf("closed RetryAfter = %v, want the 1s floor", got)
	}
	b.Record(time.Millisecond, true, false)
	if got := b.RetryAfter(); got != 10*time.Second {
		t.Errorf("RetryAfter just after trip = %v, want 10s", got)
	}
	clk.advance(7 * time.Second)
	if got := b.RetryAfter(); got != 3*time.Second {
		t.Errorf("RetryAfter 7s into a 10s open = %v, want 3s", got)
	}
	clk.advance(5 * time.Second)
	if got := b.RetryAfter(); got != time.Second {
		t.Errorf("RetryAfter past the deadline = %v, want the 1s floor", got)
	}
}

func TestBreakerWindowClearedOnReclose(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Window: 8, MinSamples: 4, ErrorRate: 0.5, ConsecutiveFails: 3, OpenFor: time.Second})
	b.Record(time.Millisecond, true, false)
	b.Record(time.Millisecond, true, false)
	b.Record(time.Millisecond, true, false) // trips
	clk.advance(time.Second)
	b.Allow()
	b.Record(time.Millisecond, false, true) // re-closes
	// The pre-trip failures must not count against the recovered shard: two
	// fresh failures (below ConsecutiveFails, and 2/2 < MinSamples) keep it
	// closed.
	b.Record(time.Millisecond, true, false)
	b.Record(time.Millisecond, true, false)
	if b.State() != BreakerClosed {
		t.Error("stale pre-trip window outcomes survived the re-close")
	}
}
