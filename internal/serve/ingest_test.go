package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"freshsource/internal/faults"
	"freshsource/internal/ingest"
	"freshsource/internal/timeline"
)

// ingestConfig enables streaming ingestion with an epoch interval long
// enough that only explicit CommitTenantEpoch calls commit.
func ingestConfig(dir string) Config {
	return Config{IngestEpoch: time.Hour, IngestDir: dir}
}

func observeBody(evs ...ObserveEvent) string {
	raw, _ := json.Marshal(ObserveRequest{Observations: evs})
	return string(raw)
}

func ev(src int, entity, at int64, kind string, version int) ObserveEvent {
	return ObserveEvent{Source: src, Entity: entity, At: at, Kind: kind, Version: version}
}

func TestObserveEndpoint(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, ingestConfig(""))
	defer srv.Close()
	t0 := int64(d.T0)

	rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(0, 3, t0+5, "appear", 0),
		ev(1, 3, t0+6, "update", 1),
	))
	if rec.Code != 202 {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body.String())
	}
	var resp ObserveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Pending != 2 || resp.Watermark != t0 || resp.Epoch != 0 {
		t.Fatalf("observe response: %+v", resp)
	}

	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"bad-kind":    {observeBody(ev(0, 3, t0+5, "mutate", 0)), 400},
		"bad-source":  {observeBody(ev(99, 3, t0+5, "appear", 0)), 400},
		"stale-tick":  {observeBody(ev(0, 3, t0, "appear", 0)), 409},
		"empty-batch": {observeBody(), 400},
		"not-json":    {`{"observations": 7}`, 400},
	} {
		t.Run(name, func(t *testing.T) {
			rec := postJSON(t, srv.Handler(), "/v1/observe", tc.body)
			if rec.Code != tc.code {
				t.Fatalf("%s: got %d want %d: %s", name, rec.Code, tc.code, rec.Body.String())
			}
		})
	}
	// Rejected batches buffer nothing.
	if got := srv.Ingester().Pending(); got != 2 {
		t.Fatalf("pending after rejections = %d", got)
	}
}

func TestObserveBackpressure(t *testing.T) {
	d := testDataset(t)
	cfg := ingestConfig("")
	cfg.IngestMaxLag = 2
	srv := newServer(t, cfg)
	defer srv.Close()
	t0 := int64(d.T0)

	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(0, 1, t0+1, "appear", 0), ev(0, 2, t0+1, "appear", 0),
	)); rec.Code != 202 {
		t.Fatalf("fill: %d", rec.Code)
	}
	rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(ev(0, 3, t0+1, "appear", 0)))
	if rec.Code != 429 {
		t.Fatalf("backpressure: got %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestObserveDisabled pins that the endpoint is absent without ingestion.
func TestObserveDisabled(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody())
	if rec.Code != 404 {
		t.Fatalf("want 404 on ingest-disabled server, got %d", rec.Code)
	}
}

func TestIngestExcludesSnapshotReload(t *testing.T) {
	cfg := ingestConfig("")
	cfg.SnapshotDir = t.TempDir()
	if _, err := New(testDataset(t), cfg); err == nil {
		t.Fatal("want error for ingest + snapshot reload")
	}
}

// TestEpochCommitPublishesGeneration pins the publish path: a committed
// epoch swaps in a new generation whose snapshot has the advanced training
// cut and extended sources, with the refit model set seeded (served
// requests and freshness immediately reflect the streamed data).
func TestEpochCommitPublishesGeneration(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, ingestConfig(""))
	defer srv.Close()
	t0 := int64(d.T0)

	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(0, 3, t0+4, "appear", 0),
		ev(2, 5, t0+9, "update", 2),
	)); rec.Code != 202 {
		t.Fatalf("observe: %d", rec.Code)
	}
	info, err := srv.CommitTenantEpoch(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Epoch != 1 || info.Generation != 2 || info.Watermark != t0+9 || info.Observations != 2 {
		t.Fatalf("epoch info: %+v", info)
	}
	if srv.Generation() != 2 {
		t.Fatalf("generation = %d", srv.Generation())
	}

	// The published snapshot: training cut at the watermark, source 0's
	// log extended by one event.
	gen := srv.current()
	if int64(gen.d.T0) != t0+9 {
		t.Fatalf("published T0 = %d, want %d", gen.d.T0, t0+9)
	}
	if got, want := gen.d.Sources[0].Log().Len(), d.Sources[0].Log().Len()+1; got != want {
		t.Fatalf("source 0 log = %d events, want %d", got, want)
	}

	// The seeded registry serves without refitting: quality and select on
	// the new generation succeed, and healthz reports the ingest state.
	if rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[0,1]}`); rec.Code != 200 {
		t.Fatalf("quality on published generation: %d %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(hrec, req)
	var hz struct {
		Generation uint64 `json:"generation"`
		Ingest     struct {
			Epoch     uint64 `json:"epoch"`
			Watermark int64  `json:"watermark"`
			Pending   int    `json:"pending"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Generation != 2 || hz.Ingest.Epoch != 1 || hz.Ingest.Watermark != t0+9 || hz.Ingest.Pending != 0 {
		t.Fatalf("healthz: %+v", hz)
	}

	// Idle commit: no-op, no generation churn.
	info, err = srv.CommitTenantEpoch(context.Background(), "")
	if err != nil || info != nil {
		t.Fatalf("idle commit: %+v, %v", info, err)
	}
	if srv.Generation() != 2 {
		t.Fatalf("idle commit bumped generation to %d", srv.Generation())
	}
}

// TestChaosIngestTornLog pins the crash-recovery seam end to end: a torn
// tail on the durable epoch log is truncated at startup, committed epochs
// are refolded, and the server comes up already serving the recovered
// generation.
func TestChaosIngestTornLog(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	t0 := int64(d.T0)

	srv, err := New(d, ingestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(1, 7, t0+3, "appear", 0),
	)); rec.Code != 202 {
		t.Fatalf("observe: %d", rec.Code)
	}
	if _, err := srv.CommitTenantEpoch(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Crash mid-append: a partial frame lands on the tail.
	path := filepath.Join(dir, "epochs.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := New(d, ingestConfig(dir))
	if err != nil {
		t.Fatalf("recovery over torn log: %v", err)
	}
	defer re.Close()
	if re.Generation() != 2 {
		t.Fatalf("recovered generation = %d, want 2 (epoch republished)", re.Generation())
	}
	if got := re.Ingester().Watermark(); int64(got) != t0+3 {
		t.Fatalf("recovered watermark = %d, want %d", got, t0+3)
	}
	if int64(re.current().d.T0) != t0+3 {
		t.Fatalf("recovered serving T0 = %d", re.current().d.T0)
	}
	// The torn tail is gone: the log accepts the next epoch cleanly.
	if rec := postJSON(t, re.Handler(), "/v1/observe", observeBody(
		ev(0, 2, t0+8, "update", 1),
	)); rec.Code != 202 {
		t.Fatalf("post-recovery observe: %d", rec.Code)
	}
	if info, err := re.CommitTenantEpoch(context.Background(), ""); err != nil || info.Epoch != 2 {
		t.Fatalf("post-recovery commit: %+v, %v", info, err)
	}
}

// TestChaosIngestEpochReplay pins duplicate-delivery recovery: an epoch
// frame re-appended with an already committed sequence number is skipped
// (not double-folded) when the server recovers the log.
func TestChaosIngestEpochReplay(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	t0 := d.T0

	rec := ingest.EpochRecord{Seq: 1, Watermark: t0 + 4, Events: []ingest.Observation{
		{Source: 0, Event: timeline.Event{Entity: 3, Kind: timeline.Appear, At: t0 + 4}},
	}}
	l, recs, err := ingest.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	// The same epoch delivered twice, then its successor.
	for _, r := range []ingest.EpochRecord{rec, rec, {Seq: 2, Watermark: t0 + 6}} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	srv, err := New(d, ingestConfig(dir))
	if err != nil {
		t.Fatalf("recovery over replayed log: %v", err)
	}
	defer srv.Close()
	if got := srv.Ingester().Seq(); got != 2 {
		t.Fatalf("recovered seq = %d, want 2", got)
	}
	if got := srv.Ingester().Watermark(); got != t0+6 {
		t.Fatalf("recovered watermark = %d, want %d", got, t0+6)
	}
	// One fold of the duplicated event: the recovered source log grew by
	// exactly one event.
	if got, want := srv.current().d.Sources[0].Log().Len(), d.Sources[0].Log().Len()+1; got != want {
		t.Fatalf("source 0 log = %d events, want %d (duplicate folded once)", got, want)
	}
}

// TestChaosIngestRefitMidStream pins the rollback rule on both commit
// seams: a failed durable append keeps the pending buffer (nothing
// committed), a failed refit keeps the epoch committed-but-dirty, and in
// both cases the serving generation is untouched until a later commit
// succeeds and publishes everything at once.
func TestChaosIngestRefitMidStream(t *testing.T) {
	d := testDataset(t)
	srv, err := New(d, ingestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	t0 := int64(d.T0)

	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(0, 1, t0+2, "appear", 0),
	)); rec.Code != 202 {
		t.Fatalf("observe: %d", rec.Code)
	}

	faults.Set("ingest.append", faults.Fault{Err: errors.New("disk full"), Times: 1})
	defer faults.Reset()
	if _, err := srv.CommitTenantEpoch(context.Background(), ""); err == nil {
		t.Fatal("want append fault")
	}
	if srv.Generation() != 1 || srv.Ingester().Pending() != 1 || srv.Ingester().Seq() != 0 {
		t.Fatalf("failed append: gen=%d pending=%d seq=%d", srv.Generation(), srv.Ingester().Pending(), srv.Ingester().Seq())
	}

	faults.Set("ingest.refit", faults.Fault{Err: errors.New("refit oom"), Times: 1})
	if _, err := srv.CommitTenantEpoch(context.Background(), ""); err == nil {
		t.Fatal("want refit fault")
	}
	if srv.Generation() != 1 {
		t.Fatalf("failed refit published generation %d", srv.Generation())
	}
	if srv.Ingester().Pending() != 0 || srv.Ingester().Seq() != 1 || !srv.Ingester().Dirty() {
		t.Fatalf("failed refit: pending=%d seq=%d dirty=%v", srv.Ingester().Pending(), srv.Ingester().Seq(), srv.Ingester().Dirty())
	}
	// Mid-stream failure leaves the old generation fully serviceable.
	if rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[0]}`); rec.Code != 200 {
		t.Fatalf("quality during dirty epoch: %d", rec.Code)
	}

	faults.Reset()
	info, err := srv.CommitTenantEpoch(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Epoch != 1 || info.Generation != 2 || info.Watermark != t0+2 {
		t.Fatalf("recovered commit: %+v", info)
	}
}

// TestChaosIngestPublishFault pins the publish-retry contract: when the
// ingester's Commit succeeds but the generation publish fails, the epoch
// stays dirty and the NEXT commit republishes it even though no new
// observations arrived — the committed data must not be stranded behind a
// no-op commit while /healthz advertises an epoch the serving generation
// never reached.
func TestChaosIngestPublishFault(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, ingestConfig(""))
	defer srv.Close()
	t0 := int64(d.T0)

	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(0, 1, t0+3, "appear", 0),
	)); rec.Code != 202 {
		t.Fatalf("observe: %d", rec.Code)
	}
	faults.Set("ingest.publish", faults.Fault{Err: errors.New("publish blown"), Times: 1})
	defer faults.Reset()
	if _, err := srv.CommitTenantEpoch(context.Background(), ""); err == nil {
		t.Fatal("want publish fault")
	}
	if srv.Generation() != 1 || srv.Ingester().Seq() != 1 || !srv.Ingester().Dirty() {
		t.Fatalf("failed publish: gen=%d seq=%d dirty=%v", srv.Generation(), srv.Ingester().Seq(), srv.Ingester().Dirty())
	}

	// No new observations: the retry must still re-derive and publish the
	// committed epoch.
	info, err := srv.CommitTenantEpoch(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Epoch != 1 || info.Generation != 2 || info.Watermark != t0+3 || info.Observations != 1 {
		t.Fatalf("republish: %+v", info)
	}
	if srv.Ingester().Dirty() {
		t.Fatal("published epoch still dirty after Ack")
	}
}

// TestChaosIngestFoldTimeout pins the degraded-health seam: an epoch fold
// canceled mid-commit (the scheduler timeout) leaves a durable epoch the
// accumulator could not absorb; /healthz turns degraded and reports the
// error, and the next commit rebuilds, publishes and restores health.
func TestChaosIngestFoldTimeout(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, ingestConfig(t.TempDir()))
	defer srv.Close()
	t0 := int64(d.T0)

	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(1, 2, t0+5, "update", 1),
	)); rec.Code != 202 {
		t.Fatalf("observe: %d", rec.Code)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.CommitTenantEpoch(cctx, ""); err == nil {
		t.Fatal("want fold failure under canceled context")
	}

	var hz struct {
		Status string `json:"status"`
		Ingest struct {
			Error string `json:"error"`
		} `json:"ingest"`
	}
	getJSON(t, srv.Handler(), "/healthz", &hz)
	if hz.Status != "degraded" || hz.Ingest.Error == "" {
		t.Fatalf("healthz during unfolded epoch: %+v", hz)
	}

	info, err := srv.CommitTenantEpoch(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Epoch != 1 || info.Generation != 2 {
		t.Fatalf("recovered commit: %+v", info)
	}
	hz.Status, hz.Ingest.Error = "", "" // Unmarshal leaves absent keys untouched
	getJSON(t, srv.Handler(), "/healthz", &hz)
	if hz.Status != "ok" || hz.Ingest.Error != "" {
		t.Fatalf("healthz after recovery: %+v", hz)
	}
}

// TestIngestEpochScheduler pins the -ingest.epoch loop: a served instance
// commits pending observations without any explicit trigger.
func TestIngestEpochScheduler(t *testing.T) {
	d := testDataset(t)
	cfg := ingestConfig("")
	cfg.IngestEpoch = 30 * time.Millisecond
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx) }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}

	if rec := postJSON(t, srv.Handler(), "/v1/observe", observeBody(
		ev(1, 4, int64(d.T0)+3, "appear", 0),
	)); rec.Code != 202 {
		t.Fatalf("observe: %d", rec.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("epoch scheduler never committed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Ingester().Watermark(); got != d.T0+3 {
		t.Errorf("scheduled commit watermark = %d", got)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
