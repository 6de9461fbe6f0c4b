// Package timeline defines the discrete time axis and the event model
// shared by the world simulator, the source simulator, the history
// integrator and the profilers.
//
// Time is a discrete Tick; one tick corresponds to one day, matching the
// daily snapshots of the paper's BL and GDELT corpora. The life of an
// entity is a sequence of events: one Appear, zero or more Updates (each
// incrementing the entity's version), and at most one Disappear. A Log is a
// time-ordered sequence of such events; the state of a collection of
// entities at any tick — a Snapshot — is obtained by replaying the log.
package timeline

import (
	"fmt"
	"sort"
)

// Tick is a discrete point in time (one tick = one day).
type Tick int

// EntityID identifies an entity of the data domain. IDs are dense small
// integers so they can index bit-array signatures directly.
type EntityID int

// EventKind distinguishes the three kinds of world changes the paper
// models: entity appearances, disappearances and value changes.
type EventKind uint8

const (
	// Appear marks the birth of an entity (initial version 0).
	Appear EventKind = iota
	// Update marks a value change of an existing entity (version += 1).
	Update
	// Disappear marks the removal of an entity from the domain.
	Disappear
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Appear:
		return "appear"
	case Update:
		return "update"
	case Disappear:
		return "disappear"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one change to one entity at one tick.
type Event struct {
	Entity EntityID
	Kind   EventKind
	At     Tick
	// Version is the entity's version after the event: 0 for Appear, the
	// incremented version for Update, and the last live version for
	// Disappear.
	Version int
}

// Log is an append-only collection of events ordered by (At, Entity, Kind).
// Appending does not need to be in time order; the log sorts lazily.
type Log struct {
	events []Event
	sorted bool
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{sorted: true} }

// Append adds an event to the log.
func (l *Log) Append(e Event) {
	if n := len(l.events); l.sorted && n > 0 && less(e, l.events[n-1]) {
		l.sorted = false
	}
	l.events = append(l.events, e)
}

// less orders events by time, then entity, then kind (Appear < Update <
// Disappear), so replaying ties is well-defined.
func less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Version < b.Version
}

// Less is the canonical replay order, exported for consumers that merge
// event streams (the streaming-ingestion epoch path) and must interleave
// exactly as a Log would sort.
func Less(a, b Event) bool { return less(a, b) }

func (l *Log) ensureSorted() {
	if !l.sorted {
		sort.Slice(l.events, func(i, j int) bool { return less(l.events[i], l.events[j]) })
		l.sorted = true
	}
}

// Len returns the number of events.
func (l *Log) Len() int { return len(l.events) }

// Events returns the events in time order. The returned slice is owned by
// the log and must not be modified.
func (l *Log) Events() []Event {
	l.ensureSorted()
	return l.events
}

// Between returns the events with lo ≤ At < hi, in time order. The returned
// slice aliases the log's storage.
func (l *Log) Between(lo, hi Tick) []Event {
	l.ensureSorted()
	i := sort.Search(len(l.events), func(k int) bool { return l.events[k].At >= lo })
	j := sort.Search(len(l.events), func(k int) bool { return l.events[k].At >= hi })
	return l.events[i:j]
}

// LastEventAt returns the tick of the last event at or before t, and false
// when the log holds no event in (-∞, t] — the freshness monitor's "last
// successful capture" lookup.
func (l *Log) LastEventAt(t Tick) (Tick, bool) {
	l.ensureSorted()
	i := sort.Search(len(l.events), func(k int) bool { return l.events[k].At > t })
	if i == 0 {
		return 0, false
	}
	return l.events[i-1].At, true
}

// EntityState is the state of one entity in a snapshot.
type EntityState struct {
	Entity EntityID
	// Version is the entity's current version (number of value updates
	// applied so far).
	Version int
	// Since is the tick of the event that produced this version.
	Since Tick
}

// Snapshot is the set of live entities, with versions, at a tick.
type Snapshot struct {
	At     Tick
	States map[EntityID]EntityState
}

// Contains reports whether the snapshot holds the entity.
func (s *Snapshot) Contains(id EntityID) bool {
	_, ok := s.States[id]
	return ok
}

// Size returns the number of entities in the snapshot.
func (s *Snapshot) Size() int { return len(s.States) }

// Materialize replays the log up to and including tick at and returns the
// resulting snapshot.
func Materialize(l *Log, at Tick) *Snapshot {
	snap := &Snapshot{At: at, States: make(map[EntityID]EntityState)}
	for _, e := range l.Events() {
		if e.At > at {
			break
		}
		ApplyEvent(snap.States, e)
	}
	return snap
}

// ApplyEvent applies one event to a mutable entity-state map. It is the
// single place where event semantics are defined, shared by Materialize and
// the incremental scanners in other packages. Replays are tolerant:
// updating or deleting an absent entity inserts/ignores rather than
// panicking, because source logs legitimately contain updates for entities
// the source inserted late or never.
func ApplyEvent(states map[EntityID]EntityState, e Event) {
	switch e.Kind {
	case Appear, Update:
		cur, ok := states[e.Entity]
		if !ok || e.Version >= cur.Version {
			states[e.Entity] = EntityState{Entity: e.Entity, Version: e.Version, Since: e.At}
		}
	case Disappear:
		delete(states, e.Entity)
	}
}
