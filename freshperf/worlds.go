package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"freshsource/internal/dataset"
	"freshsource/internal/gate"
	"freshsource/internal/ingest"
	"freshsource/internal/serve"
	"freshsource/internal/snapio"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
)

// Shape of the query workloads' tenants: GDELT-like worlds of ~1,000
// sources over a 4×2 domain, 22 daily ticks with the training cut at 15, so
// every request selects from a pool of about 1k candidates.
const (
	queryTenants   = 4
	querySources   = 1000
	queryLocations = 4
	queryTypes     = 2
)

// Shape of the ingest workload's tenant: a BL-like world over an 8×5
// domain with 10 sources at scale 3, cut at tick 120. Its horizon lies
// feedMargin ticks past the last epoch the run can stream, so the
// watermark never reaches it. It is no further: an estimate's cost grows
// with the distance of its ticks from the cut, and future ticks spread up
// to the horizon.
const (
	feedTenant     = "feed"
	feedLocations  = 8
	feedCategories = 5
	feedSources    = 10
	feedScale      = 3
	feedCut        = 120
	feedMargin     = 24
)

// worldSeed seeds the tenant worlds. The worlds are the same in every run:
// a world's size and structure set how much work each request costs, so
// drawing worlds from the run seed would spread the figures across seeds
// by the worlds' cost rather than by the code. The run seed drives the
// request streams instead.
const worldSeed = 2014

// subSeed derives an independent seed for one named input of a run, so
// each request stream draws from its own RNG.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// queryNames returns the query workloads' tenant names.
func queryNames() []string {
	names := make([]string, queryTenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	return names
}

// queryWorld generates tenant i's world, each tenant from its own seed.
func queryWorld(i int) (*dataset.Dataset, error) {
	cfg := dataset.DefaultGDELTConfig()
	cfg.Locations, cfg.EventTypes, cfg.NumSources = queryLocations, queryTypes, querySources
	cfg.Seed = worldSeed + int64(i)
	return dataset.GenerateGDELT(cfg)
}

// feedEpoch is one epoch of the ingest feed: every captured observation at
// one tick, in the order the ingester seals them.
type feedEpoch struct {
	tick timeline.Tick
	obs  []ingest.Observation
}

// feedWorld is the ingest workload's input: the snapshot the server
// starts from (sources cut at feedCut) and the stream of later captures.
type feedWorld struct {
	snap   *dataset.Dataset
	epochs []feedEpoch
}

// ingestWorld generates the ingest tenant with at least the given number
// of epochs. The stream replays the sources' own captures
// after the cut, one strictly later tick per epoch, so the streamed
// history is exactly what the sources would have reported.
func ingestWorld(epochs int) (*feedWorld, error) {
	cfg := dataset.DefaultBLConfig()
	cfg.Locations, cfg.Categories, cfg.NumSources = feedLocations, feedCategories, feedSources
	cfg.Scale = feedScale
	cfg.T0 = feedCut
	cfg.Horizon = timeline.Tick(feedCut + epochs + feedMargin)
	cfg.Seed = worldSeed
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		return nil, err
	}
	byTick := map[timeline.Tick][]ingest.Observation{}
	srcs := make([]*source.Source, len(d.Sources))
	for i, s := range d.Sources {
		var kept []timeline.Event
		for _, e := range s.Log().Events() {
			if e.At <= d.T0 {
				kept = append(kept, e)
				continue
			}
			byTick[e.At] = append(byTick[e.At], ingest.Observation{Source: i, Event: e})
		}
		if srcs[i], err = source.FromLog(s.ID(), s.Spec(), s.Horizon(), kept); err != nil {
			return nil, err
		}
	}
	fw := &feedWorld{snap: &dataset.Dataset{Name: d.Name, World: d.World, Sources: srcs, T0: d.T0}}
	// The ingester accepts ticks strictly below horizon−1.
	for t := d.T0 + 1; t < d.Horizon()-1 && len(fw.epochs) < epochs; t++ {
		obs := byTick[t]
		if len(obs) == 0 {
			continue
		}
		sort.SliceStable(obs, func(a, b int) bool { return timeline.Less(obs[a].Event, obs[b].Event) })
		fw.epochs = append(fw.epochs, feedEpoch{tick: t, obs: obs})
	}
	if len(fw.epochs) < epochs {
		return nil, fmt.Errorf("ingest world has %d non-empty ticks after the cut, need %d", len(fw.epochs), epochs)
	}
	return fw, nil
}

// readSnapshots loads snapshot directories in order.
func readSnapshots(dirs []string) ([]*dataset.Dataset, error) {
	ds := make([]*dataset.Dataset, len(dirs))
	for i, dir := range dirs {
		d, err := snapio.Read(dir)
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}

// backend is one in-process freshd serving on a loopback listener.
type backend struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startBackend builds a freshd hosting ds under names (the first is the
// default tenant), pre-fitting every tenant, and serves it on 127.0.0.1.
func startBackend(ds []*dataset.Dataset, names []string, cfg serve.Config) (*backend, error) {
	cfg.DefaultTenant = names[0]
	for i := 1; i < len(ds); i++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{Name: names[i], Dataset: ds[i]})
	}
	srv, err := serve.New(ds[0], cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &backend{srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { b.done <- srv.Serve(ctx, ln) }()
	return b, nil
}

// stop drains the server and waits until it has shut down.
func (b *backend) stop() error {
	b.cancel()
	return <-b.done
}

// gateway is an in-process freshgate routing over backends.
type gateway struct {
	pool    *gate.Pool
	url     string
	cancel  context.CancelFunc
	probing chan struct{} // closed when the probe loop has returned
	hs      *http.Server
	done    chan error
}

func startGateway(backends []*backend, defTenant string) (*gateway, error) {
	pool := make([]*gate.Backend, len(backends))
	for i, b := range backends {
		gb, err := gate.NewBackend(b.url)
		if err != nil {
			return nil, err
		}
		pool[i] = gb
	}
	p, err := gate.NewPool(pool, gate.Config{DefaultTenant: defTenant})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &gateway{
		pool: p, url: "http://" + ln.Addr().String(), cancel: cancel,
		probing: make(chan struct{}), hs: &http.Server{Handler: p.Handler()}, done: make(chan error, 1),
	}
	go func() {
		defer close(g.probing)
		p.Start(ctx)
	}()
	go func() { g.done <- g.hs.Serve(ln) }()
	return g, nil
}

func (g *gateway) stop() error {
	g.cancel()
	<-g.probing
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := g.hs.Shutdown(ctx)
	if serr := <-g.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// deployment is one complete set-up of a workload's servers.
type deployment struct {
	url      string // where clients send requests
	backends []*backend
	gw       *gateway
}

// stop shuts the gateway and every backend down and waits for them.
func (d *deployment) stop() error {
	var errs []error
	if d.gw != nil {
		errs = append(errs, d.gw.stop())
	}
	for _, b := range d.backends {
		errs = append(errs, b.stop())
	}
	return errors.Join(errs...)
}

// waitHealthy polls url+"/healthz" until it answers 200 and ready accepts
// the decoded body.
func waitHealthy(url string, ready func(map[string]any) bool) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			var body map[string]any
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && (ready == nil || ready(body)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 30s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateProbed reports whether the gate's health report carries a probed
// generation for every backend, i.e. its first probe sweep has finished.
func gateProbed(body map[string]any) bool {
	bs, _ := body["backends"].(map[string]any)
	if len(bs) == 0 {
		return false
	}
	for _, v := range bs {
		entry, _ := v.(map[string]any)
		if _, ok := entry["generation"]; !ok {
			return false
		}
	}
	return true
}

// setupQuery stands up the query workloads' servers from snapshot dirs:
// one freshd hosting every tenant, or with viaGate two such backends
// behind a freshgate. It returns once every tenant is fitted and each
// server (and the gate's first probe sweep) answers /healthz.
func setupQuery(dirs, names []string, viaGate bool) (*deployment, error) {
	n := 1
	if viaGate {
		n = 2
	}
	dep := &deployment{}
	for i := 0; i < n; i++ {
		ds, err := readSnapshots(dirs)
		if err == nil {
			var b *backend
			if b, err = startBackend(ds, names, serve.Config{}); err == nil {
				dep.backends = append(dep.backends, b)
				err = waitHealthy(b.url, nil)
			}
		}
		if err != nil {
			dep.stop()
			return nil, err
		}
	}
	dep.url = dep.backends[0].url
	if viaGate {
		gw, err := startGateway(dep.backends, names[0])
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.gw, dep.url = gw, gw.url
		if err := waitHealthy(gw.url, gateProbed); err != nil {
			dep.stop()
			return nil, err
		}
	}
	return dep, nil
}

// setupIngest stands up the ingest workload's freshd: one streaming tenant
// whose epoch log lives in logDir. The epoch timer is set far beyond any
// run, so epochs commit only when the feed calls CommitTenantEpoch.
func setupIngest(dir, logDir string) (*deployment, error) {
	ds, err := readSnapshots([]string{dir})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	b, err := startBackend(ds, []string{feedTenant}, serve.Config{IngestEpoch: time.Hour, IngestDir: logDir})
	if err != nil {
		return nil, err
	}
	dep := &deployment{url: b.url, backends: []*backend{b}}
	if err := waitHealthy(b.url, nil); err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// writeSnapshot persists d under dir/name and returns the directory.
func writeSnapshot(dir, name string, d *dataset.Dataset) (string, error) {
	p := filepath.Join(dir, name)
	return p, snapio.Write(p, d)
}
