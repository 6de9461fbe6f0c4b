package snapio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteIntoFilePathFails(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := smallDataset(t)
	if err := Write(filepath.Join(blocker, "sub"), d); err == nil {
		t.Error("want error writing under a regular file")
	}
}

func TestReadMissingWorldFile(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, worldFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err == nil {
		t.Error("want error for missing world file")
	}
}

func TestReadCorruptEntityLine(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, worldFile), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err == nil {
		t.Error("want error for corrupt entity line")
	}
}

func TestReadCorruptSourceLine(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, sourcesFile), []byte("[\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err == nil {
		t.Error("want error for corrupt source line")
	}
}

func TestReadBlankLinesTolerated(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	// Append blank lines to the events file; Read must skip them.
	f, err := os.OpenFile(filepath.Join(dir, eventsFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Read(dir); err != nil {
		t.Errorf("blank lines should be tolerated: %v", err)
	}
}

// TestWritePathCollisions makes each output file in turn uncreatable by
// pre-creating a directory with its name; Write must fail at that step.
func TestWritePathCollisions(t *testing.T) {
	d := smallDataset(t)
	for _, name := range []string{manifestFile, worldFile, sourcesFile, eventsFile} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(dir, d); err == nil {
			t.Errorf("want error when %s is a directory", name)
		}
	}
}

func TestReadInvalidEntityRejected(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	// Valid JSON, invalid world: born beyond the horizon.
	line := `{"id":0,"location":0,"category":0,"born":999999,"died":-1,"visibility":1}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, worldFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err == nil {
		t.Error("want error for entity born beyond horizon")
	}
}

func TestReadCorruptEventLine(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, eventsFile), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err == nil {
		t.Error("want error for corrupt event line")
	}
}

func TestReadEventBeyondHorizonRejected(t *testing.T) {
	d := smallDataset(t)
	dir := t.TempDir()
	if err := Write(dir, d); err != nil {
		t.Fatal(err)
	}
	// Valid JSON, invalid log: event tick outside the observation window.
	line := `{"src":0,"entity":0,"kind":0,"at":999999}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, eventsFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Read(dir)
	if err == nil {
		t.Fatal("want error for event beyond horizon")
	}
	if !strings.Contains(err.Error(), "snapio: source") {
		t.Errorf("error should name the offending source: %v", err)
	}
}

// TestReadEventOutsideWorldRejected: a well-formed event line whose entity,
// kind or version the world cannot hold fails the read with an error naming
// the field, instead of reaching a fit that indexes the entity table.
func TestReadEventOutsideWorldRejected(t *testing.T) {
	d := smallDataset(t)
	n := d.World.NumEntities()
	cases := map[string]struct{ line, want string }{
		"entity-high":      {fmt.Sprintf(`{"src":0,"entity":%d,"kind":0,"at":3}`, n), "entity"},
		"entity-negative":  {`{"src":0,"entity":-1,"kind":0,"at":3}`, "entity"},
		"kind-unknown":     {`{"src":0,"entity":0,"kind":9,"at":3}`, "kind"},
		"version-negative": {`{"src":0,"entity":0,"kind":1,"at":3,"version":-1}`, "version"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Write(dir, d); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, eventsFile)
			events, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(events, c.line+"\n"...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Read(dir)
			if err == nil {
				t.Fatalf("read accepted %s", c.line)
			}
			if !strings.Contains(err.Error(), "snapio: source 0") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error should name source 0 and the %s: %v", c.want, err)
			}
		})
	}
}

func TestWriteJSONUnmarshalableValue(t *testing.T) {
	if err := writeJSON(filepath.Join(t.TempDir(), "x.json"), func() {}); err == nil {
		t.Error("want error for unmarshalable value")
	}
}

func TestWriteLinesCallbackFailures(t *testing.T) {
	dir := t.TempDir()
	wantErr := errors.New("boom")
	if err := writeLines(filepath.Join(dir, "a.jsonl"), 1, func(int) (interface{}, error) {
		return nil, wantErr
	}); !errors.Is(err, wantErr) {
		t.Errorf("record error not propagated: %v", err)
	}
	if err := writeLines(filepath.Join(dir, "b.jsonl"), 1, func(int) (interface{}, error) {
		return make(chan int), nil
	}); err == nil {
		t.Error("want error encoding an unmarshalable record")
	}
}
