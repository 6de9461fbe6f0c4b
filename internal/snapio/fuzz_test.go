package snapio

import (
	"os"
	"path/filepath"
	"testing"

	"freshsource/internal/dataset"
)

// FuzzRead feeds arbitrary bytes to Read as one of a dataset's four files,
// the other three kept from a valid Write. Read must never panic, and a
// dataset it accepts holds only events that name an entity, kind and
// version the world accepts, at a tick inside [0, horizon): the bytes that
// reach the fit. Fits stay out of the loop, so each input costs one read.
func FuzzRead(f *testing.F) {
	cfg := dataset.DefaultBLConfig()
	cfg.Locations = 2
	cfg.Categories = 2
	cfg.NumSources = 2
	cfg.Horizon = 40
	cfg.T0 = 20
	cfg.Scale = 0.1
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := Write(dir, d); err != nil {
		f.Fatal(err)
	}
	files := []string{manifestFile, worldFile, sourcesFile, eventsFile}
	pristine := make([][]byte, len(files))
	for i, name := range files {
		if pristine[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), pristine[i])
	}
	f.Add(uint8(3), append(append([]byte(nil), pristine[3]...), `{"src":0,"entity":99999999,"kind":0,"at":3}`+"\n"...))
	f.Add(uint8(3), []byte(`{"src":0,"entity":0,"kind":9,"at":3,"version":-1}`+"\n"))

	// Inputs run one at a time in each process, so they share dir: each
	// overwrites one file and puts the pristine bytes back.
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		i := int(which) % len(files)
		path := filepath.Join(dir, files[i])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.WriteFile(path, pristine[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}()
		got, err := Read(dir)
		if err != nil {
			return
		}
		h := got.World.Horizon()
		for i, s := range got.Sources {
			for _, ev := range s.Log().Events() {
				if err := got.World.CheckEvent(ev); err != nil {
					t.Fatalf("source %d: accepted event %+v: %v", i, ev, err)
				}
				if ev.At < 0 || ev.At >= h {
					t.Fatalf("source %d: accepted event %+v outside [0, %d)", i, ev, h)
				}
			}
		}
	})
}
