// Package snapio persists datasets — a world evolution plus per-source
// capture logs — to a directory of JSON-lines files and loads them back.
// This is the bridge between the simulators and real corpora: an adopter
// with their own snapshot archive writes it in this format and feeds it to
// the training and selection pipeline unchanged.
//
// Layout of a dataset directory:
//
//	manifest.json    {"name", "horizon", "t0", "numSources"}
//	world.jsonl      one line per entity: id, location, category, born,
//	                 died (-1 = alive), update ticks, visibility
//	sources.jsonl    one line per source: id, name, schedule, observed
//	                 domain points
//	events.jsonl     one line per captured source event: source, entity,
//	                 kind, tick, version
//
// Everything round-trips exactly: Write followed by Read yields a dataset
// whose world log, source logs and quality metrics are identical.
package snapio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"freshsource/internal/dataset"
	"freshsource/internal/faults"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// faultSite is the fault-injection seam name for snapshot reads: every
// file and line loaded by Read passes through it, so chaos tests can
// simulate slow disks, hard read errors, and torn/corrupted snapshot
// files without touching the files themselves.
const faultSite = "snapio.read"

const (
	manifestFile = "manifest.json"
	worldFile    = "world.jsonl"
	sourcesFile  = "sources.jsonl"
	eventsFile   = "events.jsonl"
)

type manifest struct {
	Name       string        `json:"name"`
	Horizon    timeline.Tick `json:"horizon"`
	T0         timeline.Tick `json:"t0"`
	NumSources int           `json:"numSources"`
}

type entityRec struct {
	ID         timeline.EntityID `json:"id"`
	Location   int               `json:"location"`
	Category   int               `json:"category"`
	Born       timeline.Tick     `json:"born"`
	Died       timeline.Tick     `json:"died"`
	Updates    []timeline.Tick   `json:"updates,omitempty"`
	Visibility float64           `json:"visibility"`
}

type pointRec struct {
	L int `json:"l"`
	C int `json:"c"`
}

type sourceRec struct {
	ID       source.ID     `json:"id"`
	Name     string        `json:"name"`
	Interval timeline.Tick `json:"interval"`
	Phase    timeline.Tick `json:"phase"`
	Points   []pointRec    `json:"points"`
}

type eventRec struct {
	Source  source.ID          `json:"src"`
	Entity  timeline.EntityID  `json:"entity"`
	Kind    timeline.EventKind `json:"kind"`
	At      timeline.Tick      `json:"at"`
	Version int                `json:"version,omitempty"`
}

// Write persists the dataset into dir, creating it if needed.
func Write(dir string, d *dataset.Dataset) error {
	if d == nil || d.World == nil {
		return errors.New("snapio: nil dataset")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	m := manifest{Name: d.Name, Horizon: d.Horizon(), T0: d.T0, NumSources: len(d.Sources)}
	if err := writeJSON(filepath.Join(dir, manifestFile), m); err != nil {
		return err
	}

	if err := writeLines(filepath.Join(dir, worldFile), len(d.World.Entities()), func(i int) (interface{}, error) {
		e := d.World.Entities()[i]
		return entityRec{
			ID: e.ID, Location: e.Point.Location, Category: e.Point.Category,
			Born: e.Born, Died: e.Died, Updates: e.Updates, Visibility: e.Visibility,
		}, nil
	}); err != nil {
		return err
	}

	if err := writeLines(filepath.Join(dir, sourcesFile), len(d.Sources), func(i int) (interface{}, error) {
		s := d.Sources[i]
		spec := s.Spec()
		rec := sourceRec{ID: s.ID(), Name: s.Name(), Interval: spec.UpdateInterval, Phase: spec.Phase}
		for _, p := range spec.Points {
			rec.Points = append(rec.Points, pointRec{L: p.Location, C: p.Category})
		}
		return rec, nil
	}); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(dir, eventsFile))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i, s := range d.Sources {
		for _, ev := range s.Log().Events() {
			if err := enc.Encode(eventRec{
				Source: source.ID(i), Entity: ev.Entity, Kind: ev.Kind, At: ev.At, Version: ev.Version,
			}); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// Read loads a dataset previously persisted with Write (or assembled
// externally in the same format).
//
// Loaded sources carry the persisted schedule and observed points; their
// capture-effectiveness specs are unknown (they live in the logs, which is
// all the profilers need).
func Read(dir string) (*dataset.Dataset, error) {
	var m manifest
	if err := readJSON(filepath.Join(dir, manifestFile), &m); err != nil {
		return nil, err
	}

	var entities []world.Entity
	if err := readLines(filepath.Join(dir, worldFile), func(line []byte) error {
		var r entityRec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		entities = append(entities, world.Entity{
			ID:    r.ID,
			Point: world.DomainPoint{Location: r.Location, Category: r.Category},
			Born:  r.Born, Died: r.Died, Updates: r.Updates, Visibility: r.Visibility,
		})
		return nil
	}); err != nil {
		return nil, err
	}
	w, err := world.FromEntities(entities, m.Horizon)
	if err != nil {
		return nil, err
	}

	var srcRecs []sourceRec
	if err := readLines(filepath.Join(dir, sourcesFile), func(line []byte) error {
		var r sourceRec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		srcRecs = append(srcRecs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(srcRecs) != m.NumSources {
		return nil, fmt.Errorf("snapio: manifest says %d sources, file has %d", m.NumSources, len(srcRecs))
	}

	eventsBySource := make([][]timeline.Event, len(srcRecs))
	if err := readLines(filepath.Join(dir, eventsFile), func(line []byte) error {
		var r eventRec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		i := int(r.Source)
		if i < 0 || i >= len(srcRecs) {
			return fmt.Errorf("snapio: event references unknown source %d", i)
		}
		ev := timeline.Event{Entity: r.Entity, Kind: r.Kind, At: r.At, Version: r.Version}
		if err := w.CheckEvent(ev); err != nil {
			return fmt.Errorf("snapio: source %d event at tick %d: %w", i, r.At, err)
		}
		eventsBySource[i] = append(eventsBySource[i], ev)
		return nil
	}); err != nil {
		return nil, err
	}

	d := &dataset.Dataset{Name: m.Name, World: w, T0: m.T0}
	for i, rec := range srcRecs {
		spec := source.Spec{
			Name:           rec.Name,
			UpdateInterval: rec.Interval,
			Phase:          rec.Phase,
			// Capture effectiveness is not persisted: the logs carry it.
			Insert: source.CaptureSpec{Prob: 1, Delay: source.ConstantDelay{D: 0}},
			Delete: source.CaptureSpec{Prob: 1, Delay: source.ConstantDelay{D: 0}},
			Update: source.CaptureSpec{Prob: 1, Delay: source.ConstantDelay{D: 0}},
		}
		for _, p := range rec.Points {
			spec.Points = append(spec.Points, world.DomainPoint{Location: p.L, Category: p.C})
		}
		s, err := source.FromLog(rec.ID, spec, m.Horizon, eventsBySource[i])
		if err != nil {
			return nil, fmt.Errorf("snapio: source %s: %w", rec.Name, err)
		}
		d.Sources = append(d.Sources, s)
	}
	return d, nil
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if b, err = faults.Read(faultSite, b); err != nil {
		return fmt.Errorf("snapio: read %s: %w", path, err)
	}
	return json.Unmarshal(b, v)
}

func writeLines(path string, n int, rec func(i int) (interface{}, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		v, err := rec(i)
		if err != nil {
			return err
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return w.Flush()
}

func readLines(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		line, err := faults.Read(faultSite, line)
		if err != nil {
			return fmt.Errorf("snapio: read %s: %w", path, err)
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return sc.Err()
}
