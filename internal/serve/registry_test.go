package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"freshsource/internal/faults"
	"freshsource/internal/obs"
)

func waitForTrainedEntry(t *testing.T, r *Registry, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		_, ok := r.trained[key]
		r.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trained entry %q never appeared", key)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrainedDetachedFromRequestContext is the regression test for the fit
// poisoning bug: the coalesced fit used to run under the first requester's
// context, so a client arriving with an already-fired deadline aborted the
// shared fit and failed every waiter with that client's cancellation
// error. The fit must run detached: the doomed request gets only its own
// ctx.Err(), and the next request gets a fitted model.
func TestTrainedDetachedFromRequestContext(t *testing.T) {
	defer faults.Reset()
	reg := NewRegistry(context.Background(), testDataset(t), 4096, 0, nil)
	defer reg.Close()

	// Slow the fit slightly so the two requests genuinely overlap it.
	faults.Set("serve.fit", faults.Fault{Delay: 50 * time.Millisecond, Times: 1})

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := reg.Trained(expired, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request: err = %v, want its own DeadlineExceeded", err)
	}

	// The second requester waits on the same in-flight fit; it must get a
	// model, not the first client's cancellation.
	tr, err := reg.Trained(context.Background(), nil)
	if err != nil {
		t.Fatalf("second request poisoned by the first client's deadline: %v", err)
	}
	if tr == nil || tr.NumCandidates() == 0 {
		t.Fatal("second request got no fitted model")
	}
}

// TestRegistryCloseCancelsFitInFlight: retiring a registry (shutdown, or a
// reload candidate being rolled back) must cancel its fit; waiters get the
// cancellation, and the failed entry is not cached.
func TestRegistryCloseCancelsFitInFlight(t *testing.T) {
	defer faults.Reset()
	reg := NewRegistry(context.Background(), testDataset(t), 4096, 0, nil)

	faults.Set("serve.fit", faults.Fault{Delay: 100 * time.Millisecond, Times: 1})
	done := make(chan error, 1)
	go func() {
		_, err := reg.Trained(context.Background(), nil)
		done <- err
	}()
	waitForTrainedEntry(t, reg, "")
	reg.Close()

	select {
	case err := <-done:
		if !canceled(err) {
			t.Fatalf("waiter on a closed registry: %v, want cancellation", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter never returned after Close")
	}
	reg.mu.Lock()
	_, cached := reg.trained[""]
	reg.mu.Unlock()
	if cached {
		t.Error("canceled fit left a cached entry; the next request would be poisoned")
	}
}

// TestEpochFlushWhileFitInFlight covers the registry's wholesale eviction
// racing an in-flight computation: the dropped entry must still complete
// for the waiters already queued on it, and re-requesting the flushed key
// must recompute cleanly — no deadlock, no double close. The base entry
// survives every flush, so the race is staged on divisor entries.
func TestEpochFlushWhileFitInFlight(t *testing.T) {
	defer faults.Reset()
	obs.Enable()
	reg := NewRegistry(context.Background(), testDataset(t), 2, 0, nil)
	defer reg.Close()
	if _, err := reg.Trained(context.Background(), nil); err != nil {
		t.Fatalf("base fit: %v", err)
	}

	// Only the next computation (key "2") is slowed, so it is still in
	// flight when the second key arrives and triggers the epoch flush.
	faults.Set("serve.fit", faults.Fault{Delay: 100 * time.Millisecond, Times: 1})

	firstDone := make(chan error, 1)
	go func() {
		_, err := reg.Trained(context.Background(), []int{2})
		firstDone <- err
	}()
	waitForTrainedEntry(t, reg, "2")

	// max=2 holds the base and "2", so this flushes "2" while it is in
	// flight.
	evictions0 := counter("serve.registry.evictions")
	if _, err := reg.Trained(context.Background(), []int{3}); err != nil {
		t.Fatalf("flushing key: %v", err)
	}
	if got := counter("serve.registry.evictions") - evictions0; got != 1 {
		t.Fatalf("evictions delta = %d, want 1 (the epoch flush)", got)
	}

	select {
	case err := <-firstDone:
		if err != nil {
			t.Fatalf("waiter on the flushed in-flight entry: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("waiter on the flushed entry deadlocked")
	}

	// The flushed key recomputes from scratch (its entry is gone) and must
	// complete — this used to be the double-close / deadlock hazard.
	misses0 := counter("serve.registry.trained_misses")
	tr, err := reg.Trained(context.Background(), []int{2})
	if err != nil || tr == nil {
		t.Fatalf("re-request after flush: %v", err)
	}
	if got := counter("serve.registry.trained_misses") - misses0; got != 1 {
		t.Errorf("re-request was not a fresh computation (misses delta %d, want 1)", got)
	}
}
