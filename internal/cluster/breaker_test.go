package cluster

import (
	"testing"
	"time"
)

func TestBreakerConsecutiveFailuresOpen(t *testing.T) {
	b := newBreaker(breakerConfig{threshold: 3, cooldown: time.Hour})
	if !b.allow() {
		t.Fatal("closed breaker denied traffic")
	}
	if b.record(true) || b.record(true) {
		t.Fatal("breaker opened below the threshold")
	}
	if !b.record(true) {
		t.Fatal("threshold failure did not open the breaker")
	}
	if b.allow() {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}
	if st, opens := b.snapshot(); st != BreakerOpen || opens != 1 {
		t.Fatalf("state = %s opens = %d, want open/1", st, opens)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := newBreaker(breakerConfig{threshold: 2, cooldown: time.Hour, minSamples: 100})
	b.record(true)
	b.record(false)
	if b.record(true) {
		t.Fatal("breaker opened although a success reset the streak")
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b := newBreaker(breakerConfig{threshold: 1, cooldown: 20 * time.Millisecond})
	b.record(true)
	if b.allow() {
		t.Fatal("open breaker admitted traffic before the cooldown")
	}
	time.Sleep(25 * time.Millisecond)
	// Exactly one probe is admitted; a concurrent second caller stays out.
	if !b.allow() {
		t.Fatal("cooldown elapsed but the probe was not admitted")
	}
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", st)
	}
	if b.allow() {
		t.Fatal("second caller was admitted alongside the half-open probe")
	}
	// Probe fails: straight back to open, cooldown restarts.
	if !b.record(true) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted traffic")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second probe was not admitted")
	}
	// Probe succeeds: closed, traffic flows.
	b.record(false)
	if st, opens := b.snapshot(); st != BreakerClosed || opens != 2 {
		t.Fatalf("state = %s opens = %d, want closed/2", st, opens)
	}
	if !b.allow() {
		t.Fatal("closed breaker denied traffic after recovery")
	}
}

func TestBreakerErrorRateOpens(t *testing.T) {
	b := newBreaker(breakerConfig{threshold: 100, window: 10, minSamples: 10, errorRate: 0.5, cooldown: time.Hour})
	// Alternate failure/success: the consecutive streak never exceeds 1,
	// but the windowed rate holds at 50%.
	opened := false
	for i := 0; i < 12; i++ {
		opened = b.record(i%2 == 0) || opened
	}
	if !opened {
		t.Fatal("50% windowed error rate did not open the breaker")
	}
}

func TestBreakerRecoveryClearsWindow(t *testing.T) {
	b := newBreaker(breakerConfig{threshold: 1, window: 10, minSamples: 2, errorRate: 0.5, cooldown: time.Hour})
	b.record(true) // open, window now [fail]
	b.record(false)
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state = %s, want closed after successful probe", st)
	}
	// The stale pre-outage failure must not combine with one fresh failure
	// to instantly re-trip the rate rule... threshold 1 would open anyway;
	// check the window reset directly instead.
	b.mu.Lock()
	tripped := b.rateTrippedLocked()
	b.mu.Unlock()
	if tripped {
		t.Fatal("recovery kept the stale outcome window")
	}
}
