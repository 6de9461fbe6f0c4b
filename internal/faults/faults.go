// Package faults is a process-global fault-injection seam for chaos
// testing the serving stack. Production code calls the seam at its I/O and
// compute boundaries (snapshot reads, model-cache load/save, model fits);
// tests arm named faults that make those boundaries fail, stall, or return
// corrupted bytes — deterministically, without build tags, and without the
// production packages knowing anything beyond the site name.
//
// The disarmed path is a single atomic load, so the seams stay in release
// builds at negligible cost (the same contract as internal/obs).
//
// Wired sites:
//
//	snapio.read       every line/file read while loading a snapshot
//	modelcache.load   cache-file read in modelcache.Load
//	modelcache.save   cache-file write in modelcache.Save
//	serve.fit         the registry's detached model fit, before it runs
//	ingest.read       every epoch-log frame payload read during recovery
//	ingest.append     the durable epoch append at the head of a commit
//	ingest.refit      the incremental refit of a committed epoch, before it runs
//	ingest.publish    the generation publish of a committed epoch (serve.CommitTenantEpoch)
//
// A Fault fires at most Times times (0 = unlimited); Fired reports how
// often a site actually fired, so tests can assert the fault was hit.
// Always pair Set with a deferred Reset — faults are process-global.
package faults

import (
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes one injected failure mode. Any combination of fields may
// be set; on each firing the site sleeps Delay, then returns Err if set,
// else applies Corrupt to the bytes flowing through the seam.
type Fault struct {
	// Err is returned from the seam, simulating a hard I/O or compute
	// failure.
	Err error
	// Delay is slept before the seam returns, simulating slow disks or
	// long fits.
	Delay time.Duration
	// Corrupt mutates the bytes read through the seam (byte seams only),
	// simulating torn or bit-rotted files. It must not modify its input
	// in place.
	Corrupt func([]byte) []byte
	// Times bounds how many firings the fault has (0 = every pass).
	Times int
}

type site struct {
	f     Fault
	fired int
}

var (
	armed atomic.Bool
	mu    sync.Mutex
	sites = map[string]*site{}
)

// Set arms a fault at the named site, replacing any previous fault there
// (and resetting its fired count).
func Set(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	sites[name] = &site{f: f}
	armed.Store(true)
}

// Clear disarms the named site.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(sites, name)
	armed.Store(len(sites) > 0)
}

// Reset disarms every site. Tests defer this after arming anything.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = map[string]*site{}
	armed.Store(false)
}

// Fired reports how many times the named site's fault has fired since it
// was Set.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[name]; s != nil {
		return s.fired
	}
	return 0
}

// take claims one firing of the site's fault, if armed and not exhausted.
func take(name string) (Fault, bool) {
	if !armed.Load() {
		return Fault{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	s := sites[name]
	if s == nil || (s.f.Times > 0 && s.fired >= s.f.Times) {
		return Fault{}, false
	}
	s.fired++
	return s.f, true
}

// Inject is the seam for non-byte sites: it sleeps the armed fault's
// Delay and returns its Err (nil when disarmed, exhausted, or delay-only).
func Inject(name string) error {
	f, ok := take(name)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return f.Err
}

// Read is the seam for byte sites: called with a just-read buffer, it
// sleeps the armed fault's Delay, returns its Err if set, else returns the
// buffer passed through Corrupt. Disarmed, it returns the buffer untouched.
func Read(name string, b []byte) ([]byte, error) {
	f, ok := take(name)
	if !ok {
		return b, nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Err != nil {
		return nil, f.Err
	}
	if f.Corrupt != nil {
		return f.Corrupt(b), nil
	}
	return b, nil
}
