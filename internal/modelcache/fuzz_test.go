package modelcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"freshsource/internal/estimate"
)

// FuzzLoad feeds arbitrary bytes to the cache codec, both as the raw file
// and as a payload behind a valid header and checksum (so mutations reach
// the decoder instead of stopping at the CRC). Load must never panic; a
// damaged file is ErrCorrupt (or ErrVersion for a foreign version), and a
// file that loads saves back to exactly its own bytes.
func FuzzLoad(f *testing.F) {
	d := testDataset(f)
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.fsmc")
	for _, fit := range []*estimate.Fitted{{}, fitAndExport(f, d)} {
		if err := Save(path, Digest(d.World, d.Sources), fit); err != nil {
			f.Fatal(err)
		}
		pristine, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pristine)
		f.Add(pristine[headerSize : len(pristine)-trailerSize])
	}
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
		checkLoad(t, sealed(data))
	})
}

// sealed wraps payload bytes in a current-version header and a valid CRC.
func sealed(payload []byte) []byte {
	b := append([]byte(magic), make([]byte, 4+32)...)
	binary.LittleEndian.PutUint32(b[4:8], Version)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func checkLoad(t *testing.T, data []byte) {
	path := filepath.Join(t.TempDir(), "f.fsmc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	digest, fit, err := Load(path)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("Load failed with %v, want ErrCorrupt or ErrVersion", err)
		}
		return
	}
	if err := Save(path, digest, fit); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("a %d-byte file that loads saves back as %d different bytes", len(data), len(again))
	}
}

// TestLoadRejectsNonCanonicalFlag: a flag byte other than 0 or 1 behind a
// valid checksum is corruption, not true — otherwise the file would load
// but save back to different bytes.
func TestLoadRejectsNonCanonicalFlag(t *testing.T) {
	fit := &estimate.Fitted{Candidates: []estimate.FittedCandidate{{Name: "s", Covers: []bool{true}}}}
	payload := appendFitted(nil, fit)
	if payload[len(payload)-1] != 1 {
		t.Fatal("the cover flag is not the payload's last byte")
	}
	payload[len(payload)-1] = 2
	path := filepath.Join(t.TempDir(), "flag.fsmc")
	if err := os.WriteFile(path, sealed(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("cover flag byte 2: got %v, want ErrCorrupt", err)
	}
}
