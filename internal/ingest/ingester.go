package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
	"freshsource/internal/faults"
	"freshsource/internal/obs"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
)

// ErrBackpressure reports that the pending-observation buffer hit its
// configured bound; the caller should shed load (HTTP 429) until the next
// epoch commit drains it.
var ErrBackpressure = errors.New("ingest: pending observations exceed max lag")

// StaleError reports an observation at or behind the committed (or sealed)
// watermark. An epoch commit seals every tick up to its watermark — late
// arrivals must be rejected on both the incremental and the cold path, or
// the two would diverge.
type StaleError struct {
	At        timeline.Tick
	Watermark timeline.Tick
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("ingest: observation at tick %d not after watermark %d", e.At, e.Watermark)
}

// Config tunes an Ingester.
type Config struct {
	// Dir is the durable epoch-log directory; "" keeps epochs in memory
	// only (still exact, just not crash-recoverable).
	Dir string
	// MaxPending bounds buffered (uncommitted) observations; Submit returns
	// ErrBackpressure beyond it. 0 means DefaultMaxPending; values above
	// MaxEpochObservations are clamped to it, so a sealed epoch always
	// encodes a frame the log can durably carry.
	MaxPending int
	// FitWorkers bounds the refit worker pool (0 = GOMAXPROCS).
	FitWorkers int
}

// DefaultMaxPending is the pending-buffer bound when Config.MaxPending is 0.
const DefaultMaxPending = 65536

// Epoch is the outcome of a successful Commit: the refit estimator at the
// new cut plus the extended sources, ready to be wrapped into a serving
// generation. The caller confirms the publish with Ack(Seq); until then the
// committed state stays dirty and the next Commit re-derives an identical
// epoch.
type Epoch struct {
	Seq          uint64
	Watermark    timeline.Tick
	Observations int
	Est          *estimate.Estimator
	Sources      []*source.Source
}

// Ingester buffers streamed observations and turns them into committed
// epochs: seal → durable append → fold into the incremental accumulator →
// exact refit. All methods are safe for concurrent use; commits serialize
// on their own lock and hold the fast-path lock only to seal the batch and
// record bookkeeping, so Submit and the status accessors stay responsive
// while an epoch refits.
//
// Failure semantics mirror the serving tier's last-good rule, keyed on the
// durable append:
//
//   - Before the append: the sealed batch is retained and the commit
//     retries it wholesale (new submissions accumulate for the next epoch).
//   - After the append: the epoch is durable and is never appended again —
//     the log must carry exactly one frame per sequence number, or recovery
//     (which keeps the first frame per seq) would silently drop
//     acknowledged observations. A failed fold rebuilds the accumulator
//     from snapshot + streamed history; a failed refit or publish leaves
//     the epoch committed-but-dirty for the next Commit to republish.
//
// The serving generation is untouched by any of these failures.
type Ingester struct {
	// commitMu serializes Commit: the accumulator, the durable log and the
	// streamed history are only touched under it. mu guards the fast-path
	// state (pending buffer, sealed record, watermark/seq/dirty
	// bookkeeping) that Submit and the accessors read.
	commitMu sync.Mutex
	mu       sync.Mutex

	d    *dataset.Dataset
	acc  *estimate.Accumulator
	log  *Log
	cfg  Config
	maxT timeline.Tick

	pending  []Observation
	streamed [][]timeline.Event // accepted events per source, all epochs

	// sealed is the in-flight epoch record: the pending buffer frozen at
	// the head of a Commit. It survives a failed durable append so the
	// retry appends the identical record under the same sequence number.
	sealed *EpochRecord
	// appendedSeq is the highest sequence number durably appended; a
	// commit retry at or below it skips the append (the frame is already
	// on disk).
	appendedSeq uint64

	watermark timeline.Tick
	seq       uint64
	// dirty marks committed-but-unpublished data: recovery replayed epochs
	// at startup, or a Commit succeeded but the caller has not Acked the
	// publish (or a refit failed after the epoch was durably applied).
	dirty bool
	// sincePublish counts observations applied since the last Acked
	// publish, reported in the next Epoch.
	sincePublish int
	// failing records a durable epoch the ingester could not fold: both
	// the incremental fold and the snapshot rebuild failed, so the refit
	// state lags the durable log until a later Commit rebuilds. Surfaced
	// by Err for /healthz.
	failing error
}

// New builds an ingester over the serving snapshot, scanning each source's
// archived history once. With cfg.Dir set it recovers the durable epoch
// log, re-folding every committed epoch — after a crash the ingester
// resumes at the exact watermark it had durably reached, and the first
// Commit republishes the refit state.
func New(ctx context.Context, d *dataset.Dataset, cfg Config) (*Ingester, error) {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.MaxPending > MaxEpochObservations {
		cfg.MaxPending = MaxEpochObservations
	}
	maxT := d.Horizon() - 1
	acc, err := estimate.NewAccumulator(ctx, d.World, d.Sources, d.T0, maxT, nil, estimate.FitOptions{Workers: cfg.FitWorkers})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	in := &Ingester{
		d:         d,
		acc:       acc,
		cfg:       cfg,
		maxT:      maxT,
		watermark: d.T0,
		streamed:  make([][]timeline.Event, len(d.Sources)),
	}
	if cfg.Dir != "" {
		log, recs, err := OpenLog(cfg.Dir)
		if err != nil {
			return nil, err
		}
		in.log = log
		for _, rec := range recs {
			if err := in.applyRecord(ctx, rec); err != nil {
				log.Close()
				return nil, fmt.Errorf("ingest: recovering epoch %d: %w", rec.Seq, err)
			}
		}
		if len(recs) > 0 {
			in.dirty = true
			in.appendedSeq = recs[len(recs)-1].Seq
			obs.Counter("ingest.log.recovered_epochs").Add(int64(len(recs)))
		}
	}
	return in, nil
}

// applyRecord folds one recovered epoch into the accumulator. Records were
// validated and sorted at commit time; validation here catches a log that
// passed CRC but violates the epoch invariants (which recovery must treat
// as corruption, not skip silently).
func (in *Ingester) applyRecord(ctx context.Context, rec EpochRecord) error {
	if rec.Watermark <= in.watermark || rec.Watermark >= in.maxT {
		return fmt.Errorf("watermark %d outside (%d, %d)", rec.Watermark, in.watermark, in.maxT)
	}
	for _, o := range rec.Events {
		if err := in.validate(o); err != nil {
			return err
		}
		if o.Event.At > rec.Watermark {
			return fmt.Errorf("event tick %d beyond watermark %d", o.Event.At, rec.Watermark)
		}
	}
	perSource := in.split(rec.Events)
	if err := in.acc.Advance(ctx, rec.Watermark, perSource); err != nil {
		return err
	}
	in.commitApplied(rec.Seq, rec.Watermark, perSource, len(rec.Events))
	return nil
}

// commitApplied records the bookkeeping of an applied epoch: sequence,
// watermark, per-source streamed history and the published-observation
// counter. Callers hold mu (or, during New, have exclusive access).
func (in *Ingester) commitApplied(seq uint64, wm timeline.Tick, perSource [][]timeline.Event, n int) {
	in.seq = seq
	in.watermark = wm
	for i, evs := range perSource {
		in.streamed[i] = append(in.streamed[i], evs...)
	}
	in.sincePublish += n
}

// sealedWatermark returns the watermark new observations must exceed: the
// sealed (in-flight) epoch's if one exists, else the committed one. A
// sealed epoch's ticks are spoken for even before its fold lands — an
// arrival at or under its watermark would be stale the moment it commits.
// Callers hold mu.
func (in *Ingester) sealedWatermark() timeline.Tick {
	if in.sealed != nil && in.sealed.Watermark > in.watermark {
		return in.sealed.Watermark
	}
	return in.watermark
}

// buffered returns the total uncommitted observation count: the pending
// buffer plus the sealed (in-flight) epoch, if any. Callers hold mu.
func (in *Ingester) buffered() int {
	n := len(in.pending)
	if in.sealed != nil {
		n += len(in.sealed.Events)
	}
	return n
}

// validate checks one observation against the world and the committed
// watermark. The bounds keep the incremental and cold paths in the same
// event universe: ticks in (watermark, maxT) so the cut always stays below
// maxT, entities that exist in the world, known kinds.
func (in *Ingester) validate(o Observation) error {
	if o.Source < 0 || o.Source >= len(in.d.Sources) {
		return fmt.Errorf("ingest: source %d outside [0, %d)", o.Source, len(in.d.Sources))
	}
	if err := in.d.World.CheckEvent(o.Event); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if wm := in.sealedWatermark(); o.Event.At <= wm {
		return &StaleError{At: o.Event.At, Watermark: wm}
	}
	if o.Event.At >= in.maxT {
		return fmt.Errorf("ingest: tick %d beyond refit bound %d", o.Event.At, in.maxT-1)
	}
	return nil
}

// Submit buffers a batch of observations for the next epoch. The batch is
// atomic: any invalid observation rejects the whole batch and buffers
// nothing.
func (in *Ingester) Submit(batch []Observation) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.buffered()+len(batch) > in.cfg.MaxPending {
		obs.Counter("ingest.backpressure").Inc()
		return ErrBackpressure
	}
	for _, o := range batch {
		if err := in.validate(o); err != nil {
			obs.Counter("ingest.rejected").Add(int64(len(batch)))
			return err
		}
	}
	in.pending = append(in.pending, batch...)
	obs.Counter("ingest.accepted").Add(int64(len(batch)))
	obs.Gauge("ingest.pending").Set(float64(in.buffered()))
	return nil
}

// split partitions a sorted observation batch into per-source event slices,
// preserving order.
func (in *Ingester) split(batch []Observation) [][]timeline.Event {
	perSource := make([][]timeline.Event, len(in.d.Sources))
	for _, o := range batch {
		perSource[o.Source] = append(perSource[o.Source], o.Event)
	}
	return perSource
}

// Commit seals the pending buffer into an epoch and refits. With nothing
// sealed, nothing pending and nothing dirty it is a no-op returning
// (nil, nil). The stages:
//
//  1. seal: freeze the pending buffer into a numbered epoch record (or pick
//     up the record a failed earlier commit left sealed) — from here on new
//     submissions accumulate for the next epoch,
//  2. append the epoch frame durably ("ingest.append" fault seam), at most
//     once per sequence number — a failure retains the sealed record for
//     retry under the same number; a duplicate frame is never written,
//  3. fold the delta into the accumulator — the epoch is now committed; if
//     the fold fails (e.g. the scheduler timeout expired mid-epoch) the
//     accumulator is rebuilt from snapshot + streamed history, because the
//     durably appended epoch must never be lost,
//  4. refit ("ingest.refit" fault seam) — a failure here leaves the epoch
//     committed and dirty; the next Commit rebuilds without re-applying.
//
// The caller publishes the returned Epoch (estimator + extended sources) as
// a new serving generation and confirms with Ack(Seq). Until the Ack the
// committed state stays dirty, so a failed or dropped publish is retried:
// the next Commit re-derives an identical epoch.
func (in *Ingester) Commit(ctx context.Context) (*Epoch, error) {
	in.commitMu.Lock()
	defer in.commitMu.Unlock()

	in.mu.Lock()
	if in.sealed == nil && len(in.pending) > 0 {
		batch := in.pending
		in.pending = nil
		sort.SliceStable(batch, func(a, b int) bool { return timeline.Less(batch[a].Event, batch[b].Event) })
		newWM := batch[len(batch)-1].Event.At
		for _, o := range batch {
			if o.Event.At > newWM {
				newWM = o.Event.At
			}
		}
		in.sealed = &EpochRecord{Seq: in.seq + 1, Watermark: newWM, Events: batch}
	}
	rec := in.sealed
	dirty := in.dirty
	in.mu.Unlock()

	if rec == nil && !dirty {
		return nil, nil
	}
	if rec != nil {
		if err := in.commitSealed(ctx, rec); err != nil {
			return nil, err
		}
	}

	if err := faults.Inject("ingest.refit"); err != nil {
		return nil, fmt.Errorf("ingest: epoch %d refit: %w", in.Seq(), err)
	}
	est, err := in.acc.Build(ctx)
	if err != nil {
		return nil, err
	}
	sources, err := in.extendedSources()
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return &Epoch{Seq: in.seq, Watermark: in.watermark, Observations: in.sincePublish, Est: est, Sources: sources}, nil
}

// commitSealed makes the sealed record durable and folds it into the
// accumulator. The append happens at most once per sequence number: a
// retry after a post-append failure skips straight to the fold, so the log
// never carries two frames for one epoch (recovery keeps only the first
// frame per seq and would silently drop the rest after a restart).
func (in *Ingester) commitSealed(ctx context.Context, rec *EpochRecord) error {
	if in.appendedSeq < rec.Seq {
		if err := faults.Inject("ingest.append"); err != nil {
			return fmt.Errorf("ingest: epoch %d append: %w", rec.Seq, err)
		}
		if in.log != nil {
			if err := in.log.Append(*rec); err != nil {
				return err
			}
		}
		in.appendedSeq = rec.Seq
	}

	perSource := in.split(rec.Events)
	if err := in.acc.Advance(ctx, rec.Watermark, perSource); err != nil {
		// The epoch is durable but the accumulator may be poisoned
		// (partially advanced trackers, or an earlier failure's latch).
		// Rebuild it — a durably appended, possibly 202-acknowledged epoch
		// must never be lost, and ingestion must not stay bricked until a
		// process restart.
		if rerr := in.rebuild(ctx, rec.Watermark, perSource); rerr != nil {
			err = fmt.Errorf("ingest: epoch %d fold failed (%v); rebuild failed: %w", rec.Seq, err, rerr)
			in.mu.Lock()
			in.failing = err
			in.mu.Unlock()
			return err
		}
	}

	in.mu.Lock()
	in.commitApplied(rec.Seq, rec.Watermark, perSource, len(rec.Events))
	in.sealed = nil
	in.dirty = true
	in.failing = nil
	pending := in.buffered()
	in.mu.Unlock()
	obs.Counter("ingest.epochs.committed").Inc()
	obs.Gauge("ingest.pending").Set(float64(pending))
	return nil
}

// rebuild reconstructs the accumulator from the snapshot plus the full
// streamed history — every committed epoch and the durable-but-unfolded
// record that poisoned the incremental fold, batched into a single Advance
// (exact: the folds commute with batching, see estimate.Accumulator). On
// success the fresh accumulator replaces the poisoned one.
func (in *Ingester) rebuild(ctx context.Context, wm timeline.Tick, perSource [][]timeline.Event) error {
	defer obs.Start("ingest.rebuild.seconds").End()
	obs.Counter("ingest.rebuilds").Inc()
	acc, err := estimate.NewAccumulator(ctx, in.d.World, in.d.Sources, in.d.T0, in.maxT, nil, estimate.FitOptions{Workers: in.cfg.FitWorkers})
	if err != nil {
		return err
	}
	combined := make([][]timeline.Event, len(in.streamed))
	for i, evs := range in.streamed {
		if len(perSource[i]) == 0 {
			combined[i] = evs
			continue
		}
		merged := make([]timeline.Event, 0, len(evs)+len(perSource[i]))
		merged = append(merged, evs...)
		merged = append(merged, perSource[i]...)
		combined[i] = merged
	}
	if err := acc.Advance(ctx, wm, combined); err != nil {
		return err
	}
	in.acc = acc
	return nil
}

// Ack confirms that the Epoch returned by Commit was published. Commit
// leaves the committed state dirty so a failed downstream publish
// (validation, model derivation, generation install) is retried — the next
// Commit re-derives an identical epoch even with no new observations. Ack
// with the published sequence number clears that mark; a stale sequence
// number (a later epoch committed in between) is ignored.
func (in *Ingester) Ack(seq uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.seq == seq {
		in.dirty = false
		in.sincePublish = 0
	}
}

// extendedSources rebuilds each source over archived + streamed events, so
// the published generation's dataset (and its digest and freshness
// lookups) sees exactly the event universe the incremental refit saw.
func (in *Ingester) extendedSources() ([]*source.Source, error) {
	out := make([]*source.Source, len(in.d.Sources))
	for i, s := range in.d.Sources {
		if len(in.streamed[i]) == 0 {
			out[i] = s
			continue
		}
		evs := make([]timeline.Event, 0, s.Log().Len()+len(in.streamed[i]))
		evs = append(evs, s.Log().Events()...)
		evs = append(evs, in.streamed[i]...)
		cs, err := source.FromLog(s.ID(), s.Spec(), s.Horizon(), evs)
		if err != nil {
			return nil, fmt.Errorf("ingest: extending source %d: %w", i, err)
		}
		out[i] = cs
	}
	return out, nil
}

// Pending returns the uncommitted observation count: the pending buffer
// plus a sealed epoch awaiting a commit retry, if any.
func (in *Ingester) Pending() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.buffered()
}

// Watermark returns the committed watermark (the training cut of the last
// committed epoch; the snapshot T0 before any commit).
func (in *Ingester) Watermark() timeline.Tick {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.watermark
}

// Seq returns the last committed epoch sequence number (0 before any).
func (in *Ingester) Seq() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// Dirty reports committed-but-unpublished data: recovery replayed epochs,
// a refit failed after its epoch was applied, or a committed epoch has not
// been Acked as published.
func (in *Ingester) Dirty() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dirty
}

// Err reports a durable epoch the ingester could not fold: the append
// succeeded but both the incremental fold and the snapshot rebuild failed,
// so the refit state lags the durable log until a later Commit recovers.
// Nil when the ingester is healthy.
func (in *Ingester) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.failing
}

// Close releases the durable log, if any.
func (in *Ingester) Close() error {
	if in.log != nil {
		return in.log.Close()
	}
	return nil
}
