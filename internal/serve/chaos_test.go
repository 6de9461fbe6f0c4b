// Deterministic fault-injection ("chaos") tests for the serving stack:
// every failure mode is driven through internal/faults, and every test
// proves a degraded-mode guarantee — the daemon keeps serving its
// last-good state no matter what the disk or the candidate data does.
// `make chaos` runs this file (plus the faults package) under -race.
package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"freshsource/internal/faults"
	"freshsource/internal/obs"
	"freshsource/internal/snapio"
)

// garble returns a copy of b with JSON-breaking bytes stamped into the
// middle — a torn or bit-rotted read.
func garble(b []byte) []byte {
	out := append([]byte(nil), b...)
	copy(out[len(out)/2:], "\x00\xffgarbage")
	return out
}

// TestChaosReloadCorruptSnapshotRollsBack is the headline guarantee: a
// corrupt candidate snapshot must leave the old generation serving. The
// corruption is injected at the snapio read seam, so the bytes on disk are
// fine — this is a torn read, the worst case to detect.
func TestChaosReloadCorruptSnapshotRollsBack(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	if err := snapio.Write(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{SnapshotDir: dir})
	defer srv.Close()

	want := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if want.Code != http.StatusOK {
		t.Fatalf("pre-chaos select: %d", want.Code)
	}

	faults.Set("snapio.read", faults.Fault{Corrupt: garble, Times: 1})
	failures0 := counter("serve.reload.failures")
	rec := postJSON(t, srv.Handler(), "/v1/reload", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("reload of a corrupt snapshot: %d %s, want 500", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "stage") {
		t.Errorf("error should name the stage phase: %s", rec.Body.String())
	}
	if faults.Fired("snapio.read") == 0 {
		t.Fatal("corruption fault never fired; the test proved nothing")
	}
	if counter("serve.reload.failures")-failures0 != 1 {
		t.Error("failed reload not counted")
	}

	// Degraded mode: generation 1 keeps serving, byte-identically.
	if srv.Generation() != 1 {
		t.Fatalf("generation moved to %d after a failed reload", srv.Generation())
	}
	got := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Error("last-good generation stopped serving identical results after rollback")
	}

	// Recovery: with the fault gone, the same reload path works again.
	faults.Reset()
	if err := snapio.Write(dir, altDataset(t)); err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, srv.Handler(), "/v1/reload", ""); rec.Code != http.StatusOK {
		t.Fatalf("post-chaos reload: %d %s", rec.Code, rec.Body.String())
	}
	if srv.Generation() != 2 {
		t.Errorf("recovery reload did not swap (generation %d)", srv.Generation())
	}
}

// TestChaosReloadEventOutsideWorldRollsBack: a well-formed event line on
// disk that names an entity the world does not hold fails the reload at the
// stage phase. Were it staged, the candidate fit would index the entity
// table out of range inside a fit goroutine, where no handler can recover.
func TestChaosReloadEventOutsideWorldRollsBack(t *testing.T) {
	dir := t.TempDir()
	if err := snapio.Write(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{SnapshotDir: dir})
	defer srv.Close()

	want := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if want.Code != http.StatusOK {
		t.Fatalf("pre-chaos select: %d", want.Code)
	}

	events := filepath.Join(dir, "events.jsonl")
	f, err := os.OpenFile(events, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"src":0,"entity":99999999,"kind":0,"at":3}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, srv.Handler(), "/v1/reload", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("reload of a snapshot naming entity 99999999: %d %s, want 500", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); !strings.Contains(body, "stage") || !strings.Contains(body, "entity 99999999") {
		t.Errorf("error should name the stage phase and the entity: %s", body)
	}
	if srv.Generation() != 1 {
		t.Fatalf("generation moved to %d after a failed reload", srv.Generation())
	}
	got := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Error("last-good generation stopped serving identical results after rollback")
	}
}

// TestChaosReloadMidFitCancellation: a reload whose candidate fit outlives
// the reload deadline must discard the candidate and keep the serving
// generation; the abandoned fit is canceled, not leaked.
func TestChaosReloadMidFitCancellation(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	if err := snapio.Write(dir, altDataset(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{SnapshotDir: dir})
	defer srv.Close()

	faults.Set("serve.fit", faults.Fault{Delay: 500 * time.Millisecond, Times: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := srv.ReloadTenant(ctx, "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-fit canceled reload: %v, want DeadlineExceeded", err)
	}
	if srv.Generation() != 1 {
		t.Fatalf("generation moved to %d after a canceled reload", srv.Generation())
	}
	if rec := postJSON(t, srv.Handler(), "/v1/select", `{}`); rec.Code != http.StatusOK {
		t.Errorf("select after canceled reload: %d", rec.Code)
	}

	// The same reload succeeds once the fit is allowed to finish.
	if _, err := srv.ReloadTenant(context.Background(), ""); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if srv.Generation() != 2 {
		t.Errorf("retry did not swap (generation %d)", srv.Generation())
	}
}

// TestChaosReloadUnderFire swaps generations while the select/quality
// endpoints are being hammered: every request must complete 200, whichever
// generation it started on.
func TestChaosReloadUnderFire(t *testing.T) {
	dir := t.TempDir()
	if err := snapio.Write(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{SnapshotDir: dir, MaxInflight: 64})
	defer srv.Close()
	if err := snapio.Write(dir, altDataset(t)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rec = postJSON(t, srv.Handler(), "/v1/select", `{}`)
				if i%2 == 1 {
					rec = postJSON(t, srv.Handler(), "/v1/quality", `{"set":[1,3],"future":4}`)
				}
				if rec.Code != http.StatusOK {
					errs <- errors.New("under fire: " + rec.Body.String())
					return
				}
			}
		}(i)
	}

	info, err := srv.ReloadTenant(context.Background(), "")
	close(stop)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatalf("reload under fire: %v", err)
	}
	if !info.Swapped || info.Generation != 2 {
		t.Fatalf("reload under fire: %+v, want swapped generation 2", info)
	}
	for e := range errs {
		t.Error(e)
	}
	if rec := postJSON(t, srv.Handler(), "/v1/select", `{}`); rec.Code != http.StatusOK {
		t.Errorf("select on the swapped generation: %d", rec.Code)
	}
}

// TestChaosTornModelCacheRefits: a model-cache file corrupted at read time
// must be treated as absent — the server refits silently and still comes
// up warm.
func TestChaosTornModelCacheRefits(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	cfg := Config{ModelCacheDir: dir}

	// Cold start populates the cache.
	s1, err := New(regenDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	faults.Set("modelcache.load", faults.Fault{Corrupt: garble, Times: 1})
	corrupt0 := counter("serve.registry.modelcache_corrupt")
	s2, err := New(regenDataset(t), cfg)
	if err != nil {
		t.Fatalf("start over a torn cache file: %v", err)
	}
	defer s2.Close()
	if faults.Fired("modelcache.load") == 0 {
		t.Fatal("torn-read fault never fired")
	}
	if counter("serve.registry.modelcache_corrupt")-corrupt0 != 1 {
		t.Error("torn cache read not surfaced as a corrupt entry")
	}
	if rec := postJSON(t, s2.Handler(), "/v1/select", `{}`); rec.Code != http.StatusOK {
		t.Errorf("select after refit: %d", rec.Code)
	}
}

// TestChaosSlowDiskStillServes: disk latency on the model-cache read slows
// startup but never fails it.
func TestChaosSlowDiskStillServes(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	cfg := Config{ModelCacheDir: dir}
	s1, err := New(regenDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	const lag = 75 * time.Millisecond
	faults.Set("modelcache.load", faults.Fault{Delay: lag, Times: 1})
	t0 := time.Now()
	s2, err := New(regenDataset(t), cfg)
	if err != nil {
		t.Fatalf("start over a slow disk: %v", err)
	}
	defer s2.Close()
	if elapsed := time.Since(t0); elapsed < lag {
		t.Errorf("startup took %v, fault should have added %v", elapsed, lag)
	}
	if faults.Fired("modelcache.load") == 0 {
		t.Fatal("latency fault never fired")
	}
}

// TestChaosModelCacheSaveFailureNonFatal: a full or failing disk at
// cache-save time must not take the fit (or the server) down with it.
func TestChaosModelCacheSaveFailureNonFatal(t *testing.T) {
	defer faults.Reset()
	faults.Set("modelcache.save", faults.Fault{Err: errors.New("disk full")})
	saveErrs0 := counter("modelcache.save_errors")

	srv, err := New(regenDataset(t), Config{ModelCacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("startup with failing cache saves: %v", err)
	}
	defer srv.Close()
	if counter("modelcache.save_errors")-saveErrs0 != 1 {
		t.Error("failed save not counted")
	}
	if rec := postJSON(t, srv.Handler(), "/v1/select", `{}`); rec.Code != http.StatusOK {
		t.Errorf("select with failing cache saves: %d", rec.Code)
	}
}

// TestChaosFitErrorNotCached: a hard fit failure answers the triggering
// requests 5xx but is not cached — the next request retries and succeeds.
func TestChaosFitErrorNotCached(t *testing.T) {
	defer faults.Reset()
	obs.Enable()
	srv := newServer(t, Config{})
	defer srv.Close()

	faults.Set("serve.fit", faults.Fault{Err: errors.New("injected fit failure"), Times: 1})
	rec := postJSON(t, srv.Handler(), "/v1/select", `{"divisors":[2]}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("select over a failed fit: %d %s, want 500", rec.Code, rec.Body.String())
	}
	// The fault is exhausted; the retry must fit cleanly.
	rec = postJSON(t, srv.Handler(), "/v1/select", `{"divisors":[2]}`)
	if rec.Code != http.StatusOK {
		t.Errorf("retry after a failed fit: %d %s", rec.Code, rec.Body.String())
	}
}
