package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshsource/internal/obs"
)

// TestCoalescerDedupe: every Do on a key that arrives while the leader's
// compute is running collapses into that one compute. Determinism: the
// leader's compute blocks until every follower has registered, so the
// leader and follower counts are exact, not timing-dependent.
func TestCoalescerDedupe(t *testing.T) {
	obs.Enable()
	const scope = "test.coalesce.dedupe"
	c := newCoalescer(scope)
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (int, []byte) {
		computes.Add(1)
		<-release
		return 200, []byte("payload")
	}
	l0 := counter(scope + ".leaders")
	f0 := counter(scope + ".followers")

	const followers = 7
	results := make(chan string, followers+1)
	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		_, body, err := c.Do(context.Background(), "k", compute)
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		results <- string(body)
	}
	wg.Add(1)
	go do()
	// Wait for the leader's flight to register, then pile on followers.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go do()
	}
	for counter(scope+".followers")-f0 < followers {
		time.Sleep(time.Millisecond)
	}
	close(release) // every follower joined; let the leader publish
	wg.Wait()
	close(results)

	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
	if got := counter(scope+".leaders") - l0; got != 1 {
		t.Errorf("leaders = %d, want 1", got)
	}
	for body := range results {
		if body != "payload" {
			t.Errorf("body %q", body)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.flights) != 0 {
		t.Errorf("%d flights left after publication", len(c.flights))
	}
}

// TestCoalescerZeroWindow: the coalescer holds no batch window open —
// requests arriving while the leader computes share its result, and a
// request arriving after the leader published starts a fresh flight rather
// than joining a lingering one.
func TestCoalescerZeroWindow(t *testing.T) {
	obs.Enable()
	c := newCoalescer("test.coalesce.zero")
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), "k", func() (int, []byte) {
			computes.Add(1)
			<-release
			return 200, []byte("x")
		})
	}()
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f0 := counter("test.coalesce.zero.followers")
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, body, err := c.Do(context.Background(), "k", func() (int, []byte) {
				computes.Add(1)
				return 200, []byte("x")
			})
			if err != nil || string(body) != "x" {
				t.Errorf("follower: %q %v", body, err)
			}
		}()
	}
	for counter("test.coalesce.zero.followers")-f0 < 4 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}

	// The flight is gone once published: the next request computes anew.
	_, body, err := c.Do(context.Background(), "k", func() (int, []byte) {
		computes.Add(1)
		return 200, []byte("y")
	})
	if err != nil || string(body) != "y" {
		t.Errorf("after publication: %q %v, want a fresh compute", body, err)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("computes after publication = %d, want 2", got)
	}
}

// TestCoalescerFollowerCancel: a follower whose context fires while waiting
// gets its context error; the leader's flight is unaffected.
func TestCoalescerFollowerCancel(t *testing.T) {
	obs.Enable()
	c := newCoalescer("test.coalesce.cancel")
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (int, []byte) {
			<-release
			return 200, []byte("x")
		})
	}()
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil); err != context.Canceled {
		t.Errorf("canceled follower: err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
}

// TestCoalescerDistinctKeys: different keys never share a flight.
func TestCoalescerDistinctKeys(t *testing.T) {
	obs.Enable()
	c := newCoalescer("test.coalesce.distinct")
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(context.Background(), key, func() (int, []byte) {
				computes.Add(1)
				return 200, []byte(key)
			})
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 4 {
		t.Errorf("computes = %d, want 4", got)
	}
}

// TestCoalescedByteIdentical pins the exactness contract end to end: a
// burst of concurrent identical requests — answered by coalesced flights
// and the result cache in whatever interleaving the scheduler picks — gets
// bytes identical to a second default server answering each request alone.
func TestCoalescedByteIdentical(t *testing.T) {
	alone := newServer(t, Config{MaxInflight: 64})
	defer alone.Close()
	burst := newServer(t, Config{MaxInflight: 64})
	defer burst.Close()

	cases := []struct{ path, body string }{
		{"/v1/select", `{"algorithm":"greedy","future":4}`},
		{"/v1/select", `{"algorithm":"lazygreedy","future":4}`},
		{"/v1/quality", `{"set":[0,2,5],"ticks":[150,200]}`},
	}
	for _, tc := range cases {
		want := postJSON(t, alone.Handler(), tc.path, tc.body)
		if want.Code != http.StatusOK {
			t.Fatalf("reference %s: %d %s", tc.path, want.Code, want.Body.String())
		}

		const n = 12
		var wg sync.WaitGroup
		bodies := make([]string, n)
		codes := make([]int, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := postJSON(t, burst.Handler(), tc.path, tc.body)
				codes[i], bodies[i] = rec.Code, rec.Body.String()
			}()
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if codes[i] != http.StatusOK {
				t.Fatalf("%s[%d]: %d %s", tc.path, i, codes[i], bodies[i])
			}
			if bodies[i] != want.Body.String() {
				t.Errorf("%s %s [%d]: burst bytes differ from the server answering alone", tc.path, tc.body, i)
			}
		}
	}
}
