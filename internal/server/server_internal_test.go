package server

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBreakerAbortReleasesProbe covers the neutral probe release: a
// half-open probe that ends without a service-quality verdict (shed,
// client error, client deadline) must free the probe slot without
// closing the breaker, and an abort on a closed breaker must not reset
// its consecutive-failure count.
func TestBreakerAbortReleasesProbe(t *testing.T) {
	const th = 2
	var b breaker

	// Trip it.
	b.record(th, false)
	b.record(th, false)
	if ok, _ := b.allow(th, time.Hour); ok {
		t.Fatal("open breaker admitted a request")
	}

	// Cooldown elapsed (zero cooldown): first arrival is the probe,
	// second is rejected while the probe is in flight.
	if ok, _ := b.allow(th, 0); !ok {
		t.Fatal("no half-open probe after cooldown")
	}
	if ok, _ := b.allow(th, 0); ok {
		t.Fatal("second probe admitted while one is in flight")
	}

	// Abort the probe: still half-open, but the slot is free again —
	// before the fix, probing stayed true and every allow returned false.
	b.abort(th)
	if st, _ := b.snapshotState(); st != "half-open" {
		t.Fatalf("state after aborted probe = %s, want half-open", st)
	}
	if ok, _ := b.allow(th, 0); !ok {
		t.Fatal("breaker wedged: no probe admitted after an aborted one")
	}
	b.record(th, true)
	if st, _ := b.snapshotState(); st != "closed" {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}

	// Closed state: abort must not reset the failure count the way the
	// old record(success=true) call did.
	b.record(th, false)
	b.abort(th)
	b.record(th, false)
	if st, _ := b.snapshotState(); st != "open" {
		t.Fatalf("state = %s, want open: abort reset the failure count", st)
	}
}

// TestSweepBodyCapsWorkers: a request cannot ask for more sweep
// workers than the server has cores, since each worker loads its own
// copy of the snapshot under the request's one admission slot.
func TestSweepBodyCapsWorkers(t *testing.T) {
	for body, want := range map[string]int{
		`{"workers":1000}`: runtime.GOMAXPROCS(0),
		`{"workers":1}`:    1,
		``:                 0, // the executor's default, GOMAXPROCS
	} {
		req, err := http.NewRequest(http.MethodPost, "/snapshots/s/sweep", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parseSweepBody(req)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if spec.Workers != want {
			t.Errorf("%q: workers %d, want %d", body, spec.Workers, want)
		}
	}
}
