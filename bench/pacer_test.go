package main

import (
	"testing"
	"time"
)

// The pacer against a target that does nothing: whatever lag shows here is
// the generator's own, the floor under every paced window.
func TestPacerKeepsScheduleAgainstNoopTarget(t *testing.T) {
	const rate = 8000
	start := nowNS() + int64(sleepMargin)
	var n int64
	var lastDue int64
	w := pace(rate, start, start+int64(500*time.Millisecond), func(i, due int64) bool {
		if i != n {
			t.Errorf("dispatch %d arrived as %d", n, i)
		}
		if due < lastDue {
			t.Errorf("due times went backwards at %d", i)
		}
		n, lastDue = n+1, due
		return true
	})
	if w.offered != rate/2 || w.sent != w.offered {
		t.Fatalf("offered %d sent %d, want %d", w.offered, w.sent, rate/2)
	}
	t.Logf("lag p50 %.1f us  p99 %.1f us  max %.1f us  achieved %.4f",
		w.lag.quantile(0.5)/1e3, w.lagP99US(), float64(w.lag.max)/1e3, w.achieved())
	if lag := w.lagP99US(); lag > maxLagP99US {
		t.Errorf("lag p99 %.1f us against a no-op target exceeds %.0f us", lag, maxLagP99US)
	}
	if a := w.achieved(); a < minAchieved {
		t.Errorf("achieved %.4f of the offered rate", a)
	}
}

// A dispatch that refuses stops the window and shows in achieved.
func TestPacerReportsShortfall(t *testing.T) {
	start := nowNS() + int64(sleepMargin)
	w := pace(1000, start, start+int64(100*time.Millisecond), func(i, due int64) bool { return i < 50 })
	if w.sent != 50 || w.offered != 51 {
		t.Fatalf("sent %d offered %d, want 50 and 51", w.sent, w.offered)
	}
	if a := w.achieved(); a >= minAchieved {
		t.Errorf("achieved %.4f should fall below %.2f", a, minAchieved)
	}
}
