package gateway

import (
	"testing"
	"time"
)

// fakeClock drives a Breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := NewBreaker(BreakerConfig{FailThreshold: threshold, Cooldown: cooldown})
	b.now = clk.now
	return b, clk
}

// Closed → open at exactly FailThreshold consecutive failures; the trip
// is reported exactly once.
func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if b.Failure() {
			t.Fatalf("failure %d tripped early", i+1)
		}
		if b.State() != BreakerClosed {
			t.Fatalf("failure %d left state %v, want closed", i+1, b.State())
		}
	}
	if !b.Failure() {
		t.Fatal("third failure should trip")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after trip, want open", b.State())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

// A success resets the consecutive-failure count: interleaved failures
// never accumulate to a trip.
func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Failure()
		b.Success()
	}
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Fatalf("state=%v trips=%d, want closed/0", b.State(), b.Trips())
	}
}

// Open → half-open after Cooldown; the half-open probe is throttled to
// one per cooldown window; a probe success closes.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted immediately")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted before cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed, probe should be admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half_open", b.State())
	}
	// Second probe inside the same window is throttled.
	if b.Allow() {
		t.Fatal("second half-open probe admitted within the window")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker should admit")
	}
}

// A failed half-open probe re-trips: back to open, another cooldown,
// and the trip counter increments again.
func TestBreakerHalfOpenReTrip(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure() // trip 1
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	if !b.Failure() {
		t.Fatal("half-open failure should report a trip")
	}
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state=%v trips=%d, want open/2", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted before its new cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second recovery probe not admitted")
	}
}

// A straggler failure landing while already open neither extends the
// cooldown nor counts a new trip.
func TestBreakerStragglerFailureWhileOpen(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure() // trip
	clk.advance(900 * time.Millisecond)
	if b.Failure() {
		t.Fatal("straggler failure while open counted as a trip")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	clk.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("straggler extended the cooldown")
	}
}

// Half-open probes unthrottle once the window passes even without a
// verdict, so a lost probe response cannot wedge the breaker.
func TestBreakerHalfOpenProbeWindow(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	b.Allow() // probe 1, verdict never arrives
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("next window's probe should be admitted")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	if b.cfg.FailThreshold != 5 || b.cfg.Cooldown != 2*time.Second {
		t.Fatalf("defaults = %+v, want threshold 5 cooldown 2s", b.cfg)
	}
	for _, want := range []struct {
		s    BreakerState
		name string
	}{{BreakerClosed, "closed"}, {BreakerOpen, "open"}, {BreakerHalfOpen, "half_open"}, {BreakerState(9), "unknown"}} {
		if got := want.s.String(); got != want.name {
			t.Errorf("State(%d).String() = %q, want %q", want.s, got, want.name)
		}
	}
}
