package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freshsource/internal/timeline"
)

// FuzzRecover feeds arbitrary bytes to epoch-log recovery, both as the
// raw log file and framed with valid CRCs (so mutations reach the payload
// decoder and the sequence checks instead of stopping at the checksum).
// Recovery must never panic, and damage is either a truncation — the
// file keeps a prefix of its bytes and reopens cleanly to the same epochs
// — or an ErrCorrupt.
func FuzzRecover(f *testing.F) {
	dir := f.TempDir()
	l, _, err := OpenLog(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []EpochRecord{
		rec(1, 125, ob(0, 3, timeline.Appear, 123, 0), ob(2, 9, timeline.Update, 125, 2)),
		rec(2, 130),
		rec(3, 140, ob(1, 0, timeline.Disappear, 140, 1)),
	} {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	clean, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	f.Add(clean[:len(logMagic)])
	f.Add([]byte{})
	f.Add(encodeEpoch(rec(1, 125, ob(0, 3, timeline.Appear, 123, 0))))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecover(t, data)
		checkRecover(t, framed(data))
	})
}

// framed turns fuzz bytes into a log of up to four CRC-valid frames: the
// first byte picks the frame count and the rest splits evenly into their
// payloads.
func framed(data []byte) []byte {
	out := append([]byte(nil), logMagic...)
	if len(data) == 0 {
		return out
	}
	k := int(data[0]%4) + 1
	rest := data[1:]
	for i := 0; i < k; i++ {
		p := rest[i*len(rest)/k : (i+1)*len(rest)/k]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	return out
}

func checkRecover(t *testing.T, data []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := OpenLog(dir)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("recovery failed with %v, want ErrCorrupt or a truncation", err)
		}
		return
	}
	l.Close()
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		data = logMagic // a fresh log gets its header
	}
	if !bytes.HasPrefix(data, kept) || l.Truncated != (len(kept) < len(data)) {
		t.Fatalf("recovery kept %d of %d bytes (truncated=%v); want a prefix, truncated iff shorter", len(kept), len(data), l.Truncated)
	}
	again, recs2, err := OpenLog(dir)
	if err != nil {
		t.Fatalf("reopening the recovered log: %v", err)
	}
	again.Close()
	if again.Truncated || !reflect.DeepEqual(recs, recs2) {
		t.Fatalf("reopening the recovered log: truncated=%v, epochs %d then %d", again.Truncated, len(recs), len(recs2))
	}
}
