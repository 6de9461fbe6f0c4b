// Package ingest is the streaming-ingestion pipeline in front of the
// serving tier's generation swap: an append-only observation log plus
// epoch-based incremental refit.
//
// Observations are source capture events — (source, entity, kind, tick,
// version) — buffered as they arrive (POST /v1/observe upstream) and
// committed in epochs. A committed epoch advances the training cut to its
// watermark (the largest tick it contains), appends one durable framed
// record to the epoch log, folds the delta into the per-source sufficient
// statistics (estimate.Accumulator), and refits the estimator — exactly,
// never approximately: the refit is byte-identical to a cold fit over
// snapshot+log, pinned by TestStreamingRefitEquivalence.
//
// The epoch log is length-prefixed + CRC framed. Recovery replays committed
// epochs in order, truncates a torn tail (a crash mid-append leaves a
// partial frame; everything before it is intact), skips byte-identical
// re-deliveries of an already committed epoch, and fails loudly on
// sequence gaps and on duplicate sequence numbers with differing payloads
// — a gap means lost data and a conflicting duplicate means a producer
// wrote two different epochs under one number; neither is a torn write.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"freshsource/internal/faults"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// logName is the epoch log's file name inside the ingest directory.
const logName = "epochs.log"

// logMagic identifies the file format; a mismatch is corruption of the
// header, which recovery treats as fatal (unlike a torn tail).
var logMagic = []byte("FSEPOCH1")

// ErrCorrupt reports an epoch log that recovery refuses rather than
// truncates: a bad header, a sequence gap, or one sequence number carried
// by two different payloads. A torn tail is not an error; recovery cuts it
// off.
var ErrCorrupt = errors.New("ingest: corrupt epoch log")

// maxFrame bounds a frame payload; a length prefix beyond it is treated as
// a torn/corrupt tail rather than attempted as an allocation.
const maxFrame = 1 << 28

// MaxEpochObservations is the largest observation count one epoch frame
// can carry while its payload stays within maxFrame. Append rejects larger
// records and the ingester clamps its pending bound to it — otherwise a
// fsync'd committed epoch would decode as a torn tail on recovery and
// silently vanish.
const MaxEpochObservations = (maxFrame - epochHeaderSize) / obsSize

// Observation is one streamed source capture event.
type Observation struct {
	// Source indexes the dataset's source list.
	Source int
	// Event is the captured change (entity, kind, tick, version).
	Event timeline.Event
}

// EpochRecord is one committed epoch: a strictly increasing sequence
// number, the watermark the training cut advanced to, and the accepted
// observations, sorted by (tick, entity, kind, version, source).
type EpochRecord struct {
	Seq       uint64
	Watermark timeline.Tick
	Events    []Observation
}

// Log is the append-only durable epoch log.
type Log struct {
	f    *os.File
	path string
	// Replayed counts duplicate/replayed epoch frames skipped during
	// recovery; Truncated reports whether a torn tail was cut off.
	Replayed  int
	Truncated bool
}

// OpenLog opens (creating if needed) the epoch log in dir, recovers its
// committed epochs and positions the file for appending. A torn tail —
// short frame, bad CRC, undecodable payload — is truncated; frames that
// byte-identically re-deliver an already committed sequence number are
// skipped as replays; a forward sequence gap, or a duplicate sequence
// number with a different payload, is an error.
func OpenLog(dir string) (*Log, []EpochRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	l := &Log{f: f, path: path}
	recs, err := l.recover()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

func (l *Log) recover() ([]EpochRecord, error) {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading %s: %w", l.path, err)
	}
	if len(data) == 0 {
		if _, err := l.f.Write(logMagic); err != nil {
			return nil, fmt.Errorf("ingest: writing header: %w", err)
		}
		return nil, l.f.Sync()
	}
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != string(logMagic) {
		return nil, fmt.Errorf("%w: %s: bad magic (not an epoch log)", ErrCorrupt, l.path)
	}

	var recs []EpochRecord
	var lastSeq uint64
	var sums []uint32 // CRC per committed seq (1-based), to vet duplicates
	good := int64(len(logMagic))
	buf := data[len(logMagic):]
	torn := false
	for len(buf) > 0 {
		if len(buf) < 8 {
			torn = true
			break
		}
		n := binary.LittleEndian.Uint32(buf[0:4])
		sum := binary.LittleEndian.Uint32(buf[4:8])
		if n > maxFrame || len(buf) < 8+int(n) {
			torn = true
			break
		}
		payload, err := faults.Read("ingest.read", buf[8:8+int(n)])
		if err != nil || crc32.ChecksumIEEE(payload) != sum {
			torn = true
			break
		}
		rec, err := decodeEpoch(payload)
		if err != nil {
			torn = true
			break
		}
		good += int64(8 + n)
		buf = buf[8+int(n):]
		if rec.Seq <= lastSeq {
			// An already committed sequence number. A byte-identical frame
			// is a replay — an external producer re-sent a committed epoch;
			// the data is already folded in, so skip it but keep the frame.
			// A differing payload is NOT a replay: keeping only the first
			// frame would silently drop the observations in the others, so
			// recovery treats it as corruption.
			if rec.Seq == 0 || sum != sums[rec.Seq-1] {
				return nil, fmt.Errorf("%w: %s: epoch %d appears twice with different payloads", ErrCorrupt, l.path, rec.Seq)
			}
			l.Replayed++
			obs.Counter("ingest.log.replayed").Inc()
			continue
		}
		if rec.Seq != lastSeq+1 {
			return nil, fmt.Errorf("%w: %s: epoch gap: %d -> %d", ErrCorrupt, l.path, lastSeq, rec.Seq)
		}
		lastSeq = rec.Seq
		sums = append(sums, sum)
		recs = append(recs, rec)
	}
	if torn {
		l.Truncated = true
		obs.Counter("ingest.log.truncated").Inc()
		if err := l.f.Truncate(good); err != nil {
			return nil, fmt.Errorf("ingest: truncating torn tail of %s: %w", l.path, err)
		}
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return recs, nil
}

// Append writes one epoch frame and syncs. The frame is written with a
// single Write call, so a crash mid-append leaves at most one torn tail
// frame for recovery to truncate. A record beyond MaxEpochObservations is
// rejected before anything is written: its frame would exceed maxFrame,
// which recovery classifies as a torn tail and truncates — a committed,
// fsync'd epoch must never be encodable into an unrecoverable frame.
func (l *Log) Append(rec EpochRecord) error {
	if len(rec.Events) > MaxEpochObservations {
		return fmt.Errorf("ingest: epoch %d: %d observations exceed the %d frame bound", rec.Seq, len(rec.Events), MaxEpochObservations)
	}
	payload := encodeEpoch(rec)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("ingest: appending epoch %d: %w", rec.Seq, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ingest: syncing epoch %d: %w", rec.Seq, err)
	}
	obs.Counter("ingest.log.appends").Inc()
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// Epoch payload layout (little-endian):
//
//	seq u64 | watermark i64 | count u32 |
//	count × { source u32 | entity u64 | at i64 | version u32 | kind u8 }
const (
	epochHeaderSize = 8 + 8 + 4
	obsSize         = 4 + 8 + 8 + 4 + 1
)

func encodeEpoch(rec EpochRecord) []byte {
	buf := make([]byte, 8+8+4+obsSize*len(rec.Events))
	binary.LittleEndian.PutUint64(buf[0:8], rec.Seq)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(rec.Watermark))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(rec.Events)))
	off := 20
	for _, o := range rec.Events {
		binary.LittleEndian.PutUint32(buf[off:], uint32(o.Source))
		binary.LittleEndian.PutUint64(buf[off+4:], uint64(o.Event.Entity))
		binary.LittleEndian.PutUint64(buf[off+12:], uint64(o.Event.At))
		binary.LittleEndian.PutUint32(buf[off+20:], uint32(o.Event.Version))
		buf[off+24] = byte(o.Event.Kind)
		off += obsSize
	}
	return buf
}

func decodeEpoch(payload []byte) (EpochRecord, error) {
	if len(payload) < 20 {
		return EpochRecord{}, fmt.Errorf("ingest: epoch payload too short: %d bytes", len(payload))
	}
	rec := EpochRecord{
		Seq:       binary.LittleEndian.Uint64(payload[0:8]),
		Watermark: timeline.Tick(binary.LittleEndian.Uint64(payload[8:16])),
	}
	count := binary.LittleEndian.Uint32(payload[16:20])
	if int64(len(payload)) != 20+int64(count)*obsSize {
		return EpochRecord{}, fmt.Errorf("ingest: epoch payload length %d does not match count %d", len(payload), count)
	}
	if count == 0 {
		return rec, nil
	}
	rec.Events = make([]Observation, count)
	off := 20
	for i := range rec.Events {
		rec.Events[i] = Observation{
			Source: int(int32(binary.LittleEndian.Uint32(payload[off:]))),
			Event: timeline.Event{
				Entity:  timeline.EntityID(binary.LittleEndian.Uint64(payload[off+4:])),
				At:      timeline.Tick(binary.LittleEndian.Uint64(payload[off+12:])),
				Version: int(int32(binary.LittleEndian.Uint32(payload[off+20:]))),
				Kind:    timeline.EventKind(payload[off+24]),
			},
		}
		off += obsSize
	}
	return rec, nil
}
