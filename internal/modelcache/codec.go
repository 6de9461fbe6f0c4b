package modelcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"freshsource/internal/estimate"
	"freshsource/internal/faults"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// The cache file format, all little-endian:
//
//	[0:4)   magic "FSMC"
//	[4:8)   format version (uint32)
//	[8:40)  snapshot digest (SHA-256 of the training inputs)
//	[40:n)  payload: the estimate.Fitted encoding
//	[n:n+4) CRC-32 (IEEE) of everything before it
//
// The version is read before the checksum is verified so that a file
// written by a different format version is reported as ErrVersion, not
// ErrCorrupt — the caller treats both as a recompute, but metrics and
// logs should tell them apart. Floats are persisted as their raw IEEE-754
// bits, which is what makes a load byte-identical to the fit it captured.
const (
	magic = "FSMC"
	// Version is the cache file format version. Bump it whenever the
	// payload encoding or the digested fields change shape.
	Version = 1

	headerSize  = 4 + 4 + 32
	trailerSize = 4
)

// Sentinel errors of the codec. Both mean "recompute the fit"; they are
// distinct so the fallback can be attributed correctly.
var (
	// ErrCorrupt reports a cache file that failed structural validation:
	// bad magic, checksum mismatch, truncation or an inconsistent payload.
	ErrCorrupt = errors.New("modelcache: corrupt cache file")
	// ErrVersion reports a structurally sound file written by a different
	// format version.
	ErrVersion = errors.New("modelcache: cache file version mismatch")
)

// Save atomically writes a fitted snapshot to path: the encoding goes to a
// temporary file in the same directory which is renamed over path, so
// concurrent readers see either the old file or the new one, never a
// partial write.
func Save(path string, digest [32]byte, f *estimate.Fitted) error {
	if f == nil {
		return errors.New("modelcache: nil fitted snapshot")
	}
	if err := faults.Inject("modelcache.save"); err != nil {
		return fmt.Errorf("modelcache: save: %w", err)
	}
	buf := make([]byte, 0, headerSize+trailerSize+encodedSizeHint(f))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = append(buf, digest[:]...)
	buf = appendFitted(buf, f)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fsmc-tmp-*")
	if err != nil {
		return fmt.Errorf("modelcache: save: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("modelcache: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("modelcache: save: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("modelcache: save: %w", err)
	}
	return nil
}

// Load reads, verifies and decodes a cache file. It returns the snapshot
// digest recorded at save time alongside the decoded models; the caller
// must compare the digest against the live dataset before trusting the
// models. File-system errors pass through (os.IsNotExist distinguishes a
// cache miss); damaged files return ErrCorrupt and files from another
// format version return ErrVersion.
func Load(path string) ([32]byte, *estimate.Fitted, error) {
	var digest [32]byte
	buf, err := os.ReadFile(path)
	if err != nil {
		return digest, nil, err
	}
	if buf, err = faults.Read("modelcache.load", buf); err != nil {
		return digest, nil, fmt.Errorf("modelcache: read %s: %w", path, err)
	}
	if len(buf) < headerSize+trailerSize {
		return digest, nil, fmt.Errorf("%w: %d bytes is shorter than header+trailer", ErrCorrupt, len(buf))
	}
	if string(buf[:4]) != magic {
		return digest, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != Version {
		return digest, nil, fmt.Errorf("%w: file version %d, want %d", ErrVersion, v, Version)
	}
	body, trailer := buf[:len(buf)-trailerSize], buf[len(buf)-trailerSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return digest, nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	copy(digest[:], buf[8:40])
	d := &decoder{buf: body, off: headerSize}
	f := d.fitted()
	if d.err != nil {
		return digest, nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if d.off != len(body) {
		return digest, nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(body)-d.off)
	}
	return digest, f, nil
}

// encodedSizeHint estimates the payload size to pre-size the encode
// buffer; it only needs to be in the right ballpark.
func encodedSizeHint(f *estimate.Fitted) int {
	n := 64 + 16*len(f.Points) + 80*len(f.Models)
	for i := range f.Candidates {
		c := &f.Candidates[i]
		n += 96 + len(c.Name) + 8*(len(c.B)+len(c.Bcov)+len(c.Bup)) +
			9*len(c.InsertDelays) + len(c.Covers)
		for _, km := range []*estimate.FittedKM{c.Gi, c.Gd, c.Gu} {
			if km != nil {
				n += 16 * len(km.Times)
			}
		}
	}
	return n
}

// --- encoding ---

func appendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendWords(b []byte, ws []uint64) []byte {
	b = appendU32(b, uint32(len(ws)))
	for _, w := range ws {
		b = appendU64(b, w)
	}
	return b
}

func appendKM(b []byte, km *estimate.FittedKM) []byte {
	if km == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendF64s(b, km.Times)
	b = appendF64s(b, km.CDF)
	return appendI64(b, int64(km.N))
}

func appendFitted(b []byte, f *estimate.Fitted) []byte {
	b = appendI64(b, int64(f.T0))
	b = appendI64(b, int64(f.MaxT))
	b = appendU64(b, uint64(f.Universe))
	b = appendU32(b, uint32(len(f.Points)))
	for _, p := range f.Points {
		b = appendI64(b, int64(p.Location))
		b = appendI64(b, int64(p.Category))
	}
	b = appendU32(b, uint32(len(f.Models)))
	for i := range f.Models {
		m := &f.Models[i]
		b = appendF64(b, m.LambdaIns)
		b = appendF64(b, m.LambdaDel)
		b = appendF64(b, m.LambdaUpd)
		b = appendF64(b, m.GammaDel)
		b = appendF64(b, m.GammaUpd)
		b = appendI64(b, int64(m.OmegaT0))
		if m.Periodic == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = appendI64(b, int64(m.Periodic.Period))
			b = appendF64(b, m.Periodic.Mean)
			b = appendI64(b, int64(m.Periodic.N))
			b = appendF64s(b, m.Periodic.Rates)
		}
	}
	b = appendU32(b, uint32(len(f.Candidates)))
	for i := range f.Candidates {
		c := &f.Candidates[i]
		b = appendI64(b, int64(c.SourceID))
		b = appendStr(b, c.Name)
		b = appendF64(b, c.UpdateInterval)
		b = appendI64(b, int64(c.LastUpdate))
		b = appendF64(b, c.CoverageT0)
		b = appendWords(b, c.B)
		b = appendWords(b, c.Bcov)
		b = appendWords(b, c.Bup)
		b = appendKM(b, c.Gi)
		b = appendKM(b, c.Gd)
		b = appendKM(b, c.Gu)
		b = appendU32(b, uint32(len(c.InsertDelays)))
		for _, d := range c.InsertDelays {
			b = appendF64(b, d.Value)
			if d.Censored {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		b = appendU32(b, uint32(len(c.Covers)))
		for _, cov := range c.Covers {
			if cov {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b
}

// --- decoding ---

// decoder is a bounds-checked little-endian reader over the file body.
// The first failed read latches err and turns every later read into a
// zero-value no-op, so decode paths read linearly without per-call error
// plumbing.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated payload at %s (offset %d)", what, d.off)
	}
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8(what string) byte {
	b := d.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32(what string) uint32 {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64(what string) uint64 {
	b := d.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// flag reads a boolean byte. Only the 0 and 1 the encoder writes are
// accepted, so every file that loads re-encodes to the same bytes.
func (d *decoder) flag(what string) bool {
	switch b := d.u8(what); b {
	case 0, 1:
		return b == 1
	default:
		if d.err == nil {
			d.err = fmt.Errorf("bad %s byte %d", what, b)
		}
		return false
	}
}

func (d *decoder) i64(what string) int64   { return int64(d.u64(what)) }
func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }
func (d *decoder) tick(what string) timeline.Tick {
	return timeline.Tick(d.i64(what))
}

// count reads a length prefix and rejects values the remaining payload
// cannot possibly hold (each element is at least elemSize bytes), so a
// corrupted length cannot drive a huge allocation.
func (d *decoder) count(elemSize int, what string) int {
	n := int(d.u32(what))
	if d.err == nil && n*elemSize > len(d.buf)-d.off {
		d.fail(what + " length")
		return 0
	}
	return n
}

func (d *decoder) str(what string) string {
	n := d.count(1, what)
	return string(d.take(n, what))
}

func (d *decoder) f64s(what string) []float64 {
	n := d.count(8, what)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64(what)
	}
	return out
}

func (d *decoder) words(what string) []uint64 {
	n := d.count(8, what)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64(what)
	}
	return out
}

func (d *decoder) km(what string) *estimate.FittedKM {
	switch d.u8(what) {
	case 0:
		return nil
	case 1:
		km := &estimate.FittedKM{
			Times: d.f64s(what + " times"),
			CDF:   d.f64s(what + " cdf"),
		}
		km.N = int(d.i64(what + " n"))
		return km
	default:
		if d.err == nil {
			d.err = fmt.Errorf("bad %s presence tag", what)
		}
		return nil
	}
}

func (d *decoder) fitted() *estimate.Fitted {
	f := &estimate.Fitted{
		T0:       d.tick("t0"),
		MaxT:     d.tick("maxT"),
		Universe: int(d.u64("universe")),
	}
	nPts := d.count(16, "points")
	for j := 0; j < nPts && d.err == nil; j++ {
		f.Points = append(f.Points, world.DomainPoint{
			Location: int(d.i64("point location")),
			Category: int(d.i64("point category")),
		})
	}
	nModels := d.count(49, "models")
	for j := 0; j < nModels && d.err == nil; j++ {
		m := estimate.FittedModel{
			LambdaIns: d.f64("lambdaIns"),
			LambdaDel: d.f64("lambdaDel"),
			LambdaUpd: d.f64("lambdaUpd"),
			GammaDel:  d.f64("gammaDel"),
			GammaUpd:  d.f64("gammaUpd"),
			OmegaT0:   int(d.i64("omegaT0")),
		}
		switch d.u8("periodic tag") {
		case 0:
		case 1:
			p := &stats.PeriodicPoissonModel{
				Period: int(d.i64("period")),
				Mean:   d.f64("periodic mean"),
				N:      int(d.i64("periodic n")),
			}
			p.Rates = d.f64s("periodic rates")
			m.Periodic = p
		default:
			if d.err == nil {
				d.err = errors.New("bad periodic presence tag")
			}
		}
		f.Models = append(f.Models, m)
	}
	nCands := d.count(1, "candidates")
	for i := 0; i < nCands && d.err == nil; i++ {
		c := estimate.FittedCandidate{
			SourceID:       source.ID(d.i64("sourceID")),
			Name:           d.str("name"),
			UpdateInterval: d.f64("updateInterval"),
			LastUpdate:     d.tick("lastUpdate"),
			CoverageT0:     d.f64("coverageT0"),
			B:              d.words("B"),
			Bcov:           d.words("Bcov"),
			Bup:            d.words("Bup"),
			Gi:             d.km("Gi"),
			Gd:             d.km("Gd"),
			Gu:             d.km("Gu"),
		}
		nDelays := d.count(9, "insert delays")
		for k := 0; k < nDelays && d.err == nil; k++ {
			c.InsertDelays = append(c.InsertDelays, stats.Duration{
				Value:    d.f64("delay value"),
				Censored: d.flag("delay censored"),
			})
		}
		nCovers := d.count(1, "covers")
		for k := 0; k < nCovers && d.err == nil; k++ {
			c.Covers = append(c.Covers, d.flag("cover flag"))
		}
		f.Candidates = append(f.Candidates, c)
	}
	return f
}
