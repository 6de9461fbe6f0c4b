package modelcache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/estimate"
)

// fixture: one small BL-like dataset per test binary.
var fixtureDS *dataset.Dataset

func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	if fixtureDS != nil {
		return fixtureDS
	}
	cfg := dataset.DefaultBLConfig()
	cfg.Locations = 8
	cfg.Categories = 5
	cfg.NumSources = 10
	cfg.Horizon = 220
	cfg.T0 = 120
	cfg.Scale = 0.4
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixtureDS = d
	return d
}

func fitAndExport(t testing.TB, d *dataset.Dataset) *estimate.Fitted {
	t.Helper()
	est, err := estimate.NewFit(context.Background(), d.World, d.Sources, d.T0,
		d.World.Horizon()-1, nil, estimate.FitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := est.Export()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testDataset(t)
	f := fitAndExport(t, d)
	digest := Digest(d.World, d.Sources)
	path := filepath.Join(t.TempDir(), "rt.fsmc")
	if err := Save(path, digest, f); err != nil {
		t.Fatal(err)
	}
	gotDigest, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != digest {
		t.Error("digest changed across save/load")
	}
	if !reflect.DeepEqual(f, got) {
		t.Error("fitted snapshot changed across save/load")
	}
	// The decoded snapshot must also rebuild into an estimator the world
	// accepts — the full hit path.
	if _, err := estimate.FromFitted(d.World, got); err != nil {
		t.Fatal(err)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	d := testDataset(t)
	path := filepath.Join(t.TempDir(), "v.fsmc")
	if err := Save(path, Digest(d.World, d.Sources), fitAndExport(t, d)); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[4]++ // bump the format version field
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Error("version mismatch must not be reported as corruption")
	}
}

func TestLoadCorruption(t *testing.T) {
	d := testDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.fsmc")
	if err := Save(path, Digest(d.World, d.Sources), fitAndExport(t, d)); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"short file":    func(b []byte) []byte { return b[:10] },
		"bad magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped byte":  func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"flipped crc":   func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"trailing junk": func(b []byte) []byte { return append(b, 0xde, 0xad) },
	}
	for name, mutate := range damage {
		buf := mutate(append([]byte(nil), pristine...))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestLoadMissing(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "absent.fsmc"))
	if !os.IsNotExist(err) {
		t.Errorf("got %v, want IsNotExist", err)
	}
}

// TestLoadOrFit drives the full miss → hit → corrupt-fallback cycle and
// checks the hit is byte-identical to the fit it replaced.
func TestLoadOrFit(t *testing.T) {
	d := testDataset(t)
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.TrainOptions{FreqDivisors: []int{2, 3}, FitWorkers: 1}

	fitted, status, err := c.LoadOrFit(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusMiss {
		t.Fatalf("first call: status %v, want miss", status)
	}

	loaded, status, err := c.LoadOrFit(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusHit {
		t.Fatalf("second call: status %v, want hit", status)
	}
	if !reflect.DeepEqual(fitted.Est, loaded.Est) {
		t.Error("cache-loaded estimator differs from the fitted one")
	}
	if fitted.Constrained != loaded.Constrained || fitted.NumCandidates() != loaded.NumCandidates() {
		t.Error("trained metadata differs across hit/miss")
	}

	// Damage the entry: the next call must refit, rewrite, and then hit.
	entries, err := filepath.Glob(filepath.Join(c.Dir(), "*.fsmc"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries %v, err %v", entries, err)
	}
	buf, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(entries[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	refit, status, err := c.LoadOrFit(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusCorrupt {
		t.Fatalf("corrupted entry: status %v, want corrupt", status)
	}
	if !reflect.DeepEqual(fitted.Est, refit.Est) {
		t.Error("refit after corruption differs from the original fit")
	}
	if _, status, err = c.LoadOrFit(context.Background(), d, opt); err != nil || status != StatusHit {
		t.Fatalf("after rewrite: status %v, err %v, want hit", status, err)
	}
}

// TestLoadOrFitSharesEntryAcrossDivisors pins the dedup property: the
// cache key excludes frequency divisors, so every divisor configuration
// over the same fit shares one file.
func TestLoadOrFitSharesEntryAcrossDivisors(t *testing.T) {
	d := testDataset(t)
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, status, err := c.LoadOrFit(context.Background(), d, core.TrainOptions{FitWorkers: 1}); err != nil || status != StatusMiss {
		t.Fatalf("base: status %v, err %v", status, err)
	}
	tr, status, err := c.LoadOrFit(context.Background(), d, core.TrainOptions{FreqDivisors: []int{2, 4}, FitWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusHit {
		t.Errorf("divisor config: status %v, want hit off the base entry", status)
	}
	if !tr.Constrained {
		t.Error("divisor config must still derive variants on load")
	}
	entries, _ := filepath.Glob(filepath.Join(c.Dir(), "*.fsmc"))
	if len(entries) != 1 {
		t.Errorf("%d cache entries, want 1 shared across divisor configs", len(entries))
	}
}

// TestDigestSensitivity checks the digest separates what it must: any
// change to the world or the source logs changes the key, while refitting
// parameters do not touch it.
func TestDigestSensitivity(t *testing.T) {
	cfg := dataset.DefaultBLConfig()
	cfg.Locations = 4
	cfg.Categories = 3
	cfg.NumSources = 5
	cfg.Horizon = 120
	cfg.T0 = 70
	cfg.Scale = 0.3
	d1, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1b, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	d2, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(d1.World, d1.Sources) != Digest(d1b.World, d1b.Sources) {
		t.Error("identical generation must digest identically")
	}
	if Digest(d1.World, d1.Sources) == Digest(d2.World, d2.Sources) {
		t.Error("different seed must digest differently")
	}
	if Digest(d1.World, d1.Sources[:len(d1.Sources)-1]) == Digest(d1.World, d1.Sources) {
		t.Error("dropping a source must digest differently")
	}
}

func TestFileNameSeparatesFitParams(t *testing.T) {
	d := testDataset(t)
	dig := Digest(d.World, d.Sources)
	base := FileName(dig, d.T0, 200, nil)
	if FileName(dig, d.T0+1, 200, nil) == base {
		t.Error("t0 must be part of the key")
	}
	if FileName(dig, d.T0, 201, nil) == base {
		t.Error("maxT must be part of the key")
	}
	if FileName(dig, d.T0, 200, d.World.Points()[:1]) == base {
		t.Error("points must be part of the key")
	}
	var otherDig [32]byte
	if FileName(otherDig, d.T0, 200, nil) == base {
		t.Error("digest must be part of the key")
	}
}

func TestSaveRejectsNil(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), "x.fsmc"), [32]byte{}, nil); err == nil {
		t.Error("want error saving nil snapshot")
	}
}
