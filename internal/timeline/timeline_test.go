package timeline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventKindString(t *testing.T) {
	if Appear.String() != "appear" || Update.String() != "update" || Disappear.String() != "disappear" {
		t.Error("EventKind strings wrong")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestLogOrdering(t *testing.T) {
	l := NewLog()
	l.Append(Event{Entity: 2, Kind: Appear, At: 5})
	l.Append(Event{Entity: 1, Kind: Appear, At: 3})
	l.Append(Event{Entity: 1, Kind: Update, At: 3, Version: 1}) // same tick: Appear < Update
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("Len = %d", len(ev))
	}
	if ev[0].Entity != 1 || ev[0].Kind != Appear {
		t.Errorf("first event = %+v", ev[0])
	}
	if ev[1].Kind != Update {
		t.Errorf("second event = %+v", ev[1])
	}
	if ev[2].At != 5 {
		t.Errorf("third event = %+v", ev[2])
	}
}

func TestBetween(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Event{Entity: EntityID(i), Kind: Appear, At: Tick(i)})
	}
	got := l.Between(3, 7)
	if len(got) != 4 {
		t.Fatalf("Between(3,7) len = %d", len(got))
	}
	if got[0].At != 3 || got[3].At != 6 {
		t.Errorf("Between bounds wrong: %v..%v", got[0].At, got[3].At)
	}
	if len(l.Between(20, 30)) != 0 {
		t.Error("out-of-range Between should be empty")
	}
}

func TestLastEventAt(t *testing.T) {
	l := NewLog()
	if _, ok := l.LastEventAt(100); ok {
		t.Error("empty log should report no last event")
	}
	for _, at := range []Tick{2, 5, 5, 9} {
		l.Append(Event{Entity: 1, Kind: Update, At: at})
	}
	cases := []struct {
		at   Tick
		want Tick
		ok   bool
	}{
		{1, 0, false}, // before the first event
		{2, 2, true},  // exact hit
		{7, 5, true},  // between events
		{9, 9, true},
		{50, 9, true}, // past the end
	}
	for _, c := range cases {
		got, ok := l.LastEventAt(c.at)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("LastEventAt(%d) = (%d, %v), want (%d, %v)", c.at, got, ok, c.want, c.ok)
		}
	}
}

func TestMaterializeLifecycle(t *testing.T) {
	l := NewLog()
	l.Append(Event{Entity: 1, Kind: Appear, At: 0})
	l.Append(Event{Entity: 1, Kind: Update, At: 5, Version: 1})
	l.Append(Event{Entity: 1, Kind: Update, At: 9, Version: 2})
	l.Append(Event{Entity: 1, Kind: Disappear, At: 12, Version: 2})
	l.Append(Event{Entity: 2, Kind: Appear, At: 7})

	s := Materialize(l, 4)
	if !s.Contains(1) || s.Contains(2) || s.Size() != 1 {
		t.Errorf("snapshot@4 wrong: %+v", s)
	}
	if s.States[1].Version != 0 {
		t.Errorf("version@4 = %d", s.States[1].Version)
	}

	s = Materialize(l, 9)
	if s.States[1].Version != 2 || s.States[1].Since != 9 {
		t.Errorf("state@9 = %+v", s.States[1])
	}
	if !s.Contains(2) {
		t.Error("entity 2 missing at 9")
	}

	s = Materialize(l, 12)
	if s.Contains(1) {
		t.Error("entity 1 should be gone at 12")
	}
	if s.Size() != 1 {
		t.Errorf("size@12 = %d", s.Size())
	}
}

func TestApplyEventStaleUpdateIgnored(t *testing.T) {
	states := map[EntityID]EntityState{}
	ApplyEvent(states, Event{Entity: 1, Kind: Update, At: 10, Version: 3})
	ApplyEvent(states, Event{Entity: 1, Kind: Update, At: 12, Version: 2}) // stale
	if states[1].Version != 3 {
		t.Errorf("stale update overwrote newer version: %+v", states[1])
	}
	// Disappear of absent entity is a no-op.
	ApplyEvent(states, Event{Entity: 9, Kind: Disappear, At: 1})
	if len(states) != 1 {
		t.Error("disappear of absent entity changed the map")
	}
}

func TestQuickMaterializeEquivalentUnderShuffle(t *testing.T) {
	// Property: event insertion order does not affect the materialized
	// snapshot (the log sorts deterministically).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var events []Event
		for id := 0; id < 10; id++ {
			born := Tick(r.Intn(10))
			events = append(events, Event{Entity: EntityID(id), Kind: Appear, At: born})
			if r.Intn(2) == 0 {
				events = append(events, Event{Entity: EntityID(id), Kind: Update, At: born + Tick(1+r.Intn(5)), Version: 1})
			}
		}
		l1, l2 := NewLog(), NewLog()
		for _, e := range events {
			l1.Append(e)
		}
		perm := r.Perm(len(events))
		for _, i := range perm {
			l2.Append(events[i])
		}
		a, b := Materialize(l1, 20), Materialize(l2, 20)
		if a.Size() != b.Size() {
			return false
		}
		for id, st := range a.States {
			if b.States[id] != st {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
