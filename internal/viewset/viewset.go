// Package viewset maintains the set of virtual views of a column and
// implements the paper's query routing (§2.1) and view retention policy
// (§2.2, Listing 1 lines 21–32).
//
// The set always contains the full view v[-inf,inf]; partial views are
// suggested by the adaptive engine after each query and are inserted,
// replace an existing view, or are discarded according to the subset /
// superset rules with the user-set discard tolerance d and replacement
// tolerance r.
//
// Concurrency contract: the read side — RouteSingle, RouteMulti, Full,
// Partials, Len, Frozen, CoveredInterval, Clock, Temperatures — is safe
// for any number of concurrent callers (the LRU clock is atomic, the
// usage map has its own lock, and the partial-view slice is
// copy-on-write, so routing only ever reads immutable snapshots). The
// write side — Consider, Insert, Remove, ReplaceExisting, Contains,
// Clear, SetLimitPolicy — must be externally serialized against both
// readers and other writers; the adaptive engine holds its write lock
// around every call.
package viewset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/asv-db/asv/internal/view"
)

// Decision is the outcome of suggesting a candidate view to the set.
type Decision int

const (
	// DecisionNone is the zero value: no candidate was considered at all.
	// Queries that never build a candidate (non-adaptive engines, frozen
	// sets, closed engines) report DecisionNone, so telemetry that
	// forgets to check QueryResult.CandidateBuilt reads "none" instead of
	// a phantom "inserted".
	DecisionNone Decision = iota
	// Inserted: the candidate became a new partial view.
	Inserted
	// Replaced: the candidate replaced an existing partial view whose
	// range it covers at similar cost (Listing 1 lines 28–31).
	Replaced
	// DiscardedNotSmaller: the candidate indexes at least as many pages as
	// the full view, so it cannot beat a full scan (line 22).
	DiscardedNotSmaller
	// DiscardedSubset: the candidate covers a subset of an existing view
	// while indexing a similar number of pages (lines 24–27).
	DiscardedSubset
	// DiscardedLimit: the maximum number of views is reached; the set
	// freezes and no further candidates will be generated (§2.2).
	DiscardedLimit
	// Evicted: the view limit was reached under the EvictLRU policy; the
	// least-recently-routed partial view made room for the candidate.
	Evicted
	// DiscardedStale: the engine invalidated the candidate before it
	// could be published — an update alignment, view rebuild or engine
	// close ran between the pinned scan that built it and the
	// exclusive-room retention decision, so its page set no longer
	// reflects the column.
	DiscardedStale
)

// String renders the decision for logs and reports.
func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return "none"
	case Inserted:
		return "inserted"
	case Replaced:
		return "replaced"
	case DiscardedNotSmaller:
		return "discarded(not-smaller-than-full)"
	case DiscardedSubset:
		return "discarded(subset-of-existing)"
	case DiscardedLimit:
		return "discarded(view-limit)"
	case DiscardedStale:
		return "discarded(stale-candidate)"
	case Evicted:
		return "inserted(evicted-lru)"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// LimitPolicy selects the behaviour when the view limit is reached.
type LimitPolicy int

const (
	// Freeze stops candidate generation for good — the paper's behaviour:
	// "If the limit has been reached already, we stop the generation of
	// new partial views altogether" (§2.2).
	Freeze LimitPolicy = iota
	// EvictLRU evicts the least-recently-routed partial view to admit the
	// candidate, keeping the layer adaptive under drifting workloads.
	EvictLRU
)

// String renders the policy name.
func (p LimitPolicy) String() string {
	switch p {
	case Freeze:
		return "freeze"
	case EvictLRU:
		return "evict-lru"
	default:
		return fmt.Sprintf("LimitPolicy(%d)", int(p))
	}
}

// Set is the view index of one column.
type Set struct {
	full *view.View
	// partials is copy-on-write: every mutation installs a freshly built
	// slice, never writing an element a concurrent reader could hold. A
	// routing pass captures the header once and works on an immutable
	// snapshot.
	partials    []*view.View
	maxViews    int
	discardTol  int // d: pages of slack when discarding subsets
	replaceTol  int // r: pages of slack when replacing supersets
	frozen      bool
	limitPolicy LimitPolicy

	clock atomic.Uint64 // logical routing clock for LRU

	lruMu sync.Mutex           // guards usage (touched by concurrent routers)
	usage map[*view.View]usage // routing recency/frequency per partial view

	// Delta-capture cache (see snapshot.go): the most recent capture's
	// chunk table, the partial-view order it captured, and the per-view
	// entries it may share with the next capture. The set owns one chunk
	// reference per cached chunk. All four are written only under the
	// engine's exclusive room, except capDirty, which alignment workers
	// mark concurrently and therefore has its own lock.
	capViews  []*view.View
	capChunks []*snapChunk
	capBy     map[*view.View]*SnapView

	// releaseErr parks the first error hit while dropping a superseded
	// cache's references (written under the exclusive room, drained by
	// TakeReleaseErr after each capture).
	releaseErr error

	dirtyMu  sync.Mutex
	capDirty map[*view.View]struct{}

	captureHook func(*view.View) ([][]byte, error) // test seam: per-view capture
	releaseHook func(*view.View) error             // test seam: drained-capture release
}

// usage is one partial view's temperature record: the routing tick of its
// most recent hit and its total hit count, both advanced by touch. The
// autopilot's view lifecycle reads them through Temperatures.
type usage struct {
	last uint64 // routing tick of the most recent hit
	uses uint64 // total routing hits
}

// New creates a set holding the column's full view. maxViews bounds the
// number of partial views; discardTol and replaceTol are the paper's d and
// r (both 0 in all paper experiments, §3). The limit policy defaults to
// Freeze (the paper's behaviour); see SetLimitPolicy.
func New(full *view.View, maxViews, discardTol, replaceTol int) *Set {
	if maxViews < 0 {
		maxViews = 0
	}
	return &Set{
		full:       full,
		maxViews:   maxViews,
		discardTol: discardTol,
		replaceTol: replaceTol,
		usage:      make(map[*view.View]usage),
		capBy:      make(map[*view.View]*SnapView),
		capDirty:   make(map[*view.View]struct{}),
	}
}

// SetLimitPolicy selects the behaviour when the view limit is hit.
func (s *Set) SetLimitPolicy(p LimitPolicy) { s.limitPolicy = p }

// touch records a routing hit at the given clock tick for LRU and
// temperature accounting.
func (s *Set) touch(v *view.View, tick uint64) {
	if v.Full() {
		return
	}
	s.lruMu.Lock()
	u := s.usage[v]
	u.uses++
	if tick > u.last {
		u.last = tick
	}
	s.usage[v] = u
	s.lruMu.Unlock()
}

// Full returns the full view.
func (s *Set) Full() *view.View { return s.full }

// Partials returns a snapshot of the current partial views. The returned
// slice is the caller's to keep: mutations never write a published slice
// in place.
func (s *Set) Partials() []*view.View {
	ps := s.partials
	out := make([]*view.View, len(ps))
	copy(out, ps)
	return out
}

// Len returns the number of partial views.
func (s *Set) Len() int { return len(s.partials) }

// Frozen reports whether the view limit was hit, which stops all further
// candidate generation: "If the limit has been reached already, we stop
// the generation of new partial views altogether" (§2.2).
func (s *Set) Frozen() bool { return s.frozen }

// RouteSingle implements single-view mode (§2.1): among the views that
// fully cover [lo, hi], return the one indexing the fewest physical pages.
// The full view always qualifies, so the result is never nil.
func (s *Set) RouteSingle(lo, hi uint64) *view.View {
	tick := s.clock.Add(1)
	best := s.full
	for _, v := range s.partials {
		if v.Covers(lo, hi) && v.NumPages() < best.NumPages() {
			best = v
		}
	}
	s.touch(best, tick)
	return best
}

// RouteMulti implements multi-view mode (§2.1): find a set of partial
// views that fully cover [lo, hi] in conjunction. Following the paper —
// "the system tries to answer a query using multiple views if possible,
// instead of directing the query to a single (potentially larger) view" —
// the greedy pass repeatedly picks, among the views covering the first
// uncovered point, the one indexing the fewest physical pages (furthest
// reach breaks ties). Shared pages between the chosen views are
// deduplicated by the caller's processed-pages bitvector, so a chain of
// small overlapping views scans at most their page union. RouteMulti
// returns nil when the partial views cannot cover the range; the caller
// then falls back to RouteSingle.
func (s *Set) RouteMulti(lo, hi uint64) []*view.View {
	tick := s.clock.Add(1)
	ps := s.partials // immutable snapshot
	var out []*view.View
	c := lo
	for {
		var best *view.View
		for _, v := range ps {
			if v.Lo() <= c && c <= v.Hi() {
				if best == nil || v.NumPages() < best.NumPages() ||
					(v.NumPages() == best.NumPages() && v.Hi() > best.Hi()) {
					best = v
				}
			}
		}
		if best == nil {
			return nil
		}
		out = append(out, best)
		s.touch(best, tick)
		if best.Hi() >= hi {
			return out
		}
		c = best.Hi() + 1 // best.Hi() < hi <= MaxUint64: no overflow
	}
}

// replaceAt installs cand in place of the view at index i, copy-on-write.
func (s *Set) replaceAt(i int, cand *view.View) {
	next := make([]*view.View, len(s.partials))
	copy(next, s.partials)
	next[i] = cand
	s.partials = next
}

// Consider runs the retention decision of Listing 1 (lines 21–32) for a
// finished candidate view. It returns the decision and, for Replaced, the
// displaced view — the caller is responsible for releasing the candidate
// on any Discarded* decision and the displaced view on Replaced. Consider
// is a write operation (see the package concurrency contract).
func (s *Set) Consider(cand *view.View) (Decision, *view.View) {
	if cand.NumPages() >= s.full.NumPages() {
		return DiscardedNotSmaller, nil
	}
	for i, pv := range s.partials {
		if cand.CoversSubsetOf(pv) && cand.NumPages() >= pv.NumPages()-s.discardTol {
			// Smaller range at similar cost: less useful than what exists.
			return DiscardedSubset, nil
		}
		if cand.CoversSupersetOf(pv) && cand.NumPages() <= pv.NumPages()+s.replaceTol {
			// Wider range at similar cost: strictly more useful. The
			// candidate inherits the displaced view's temperature — it
			// serves the same (and more) queries.
			old := pv
			s.replaceAt(i, cand)
			s.lruMu.Lock()
			s.usage[cand] = s.usage[old]
			delete(s.usage, old)
			s.lruMu.Unlock()
			return Replaced, old
		}
	}
	if len(s.partials) >= s.maxViews {
		if s.limitPolicy == EvictLRU && len(s.partials) > 0 {
			s.lruMu.Lock()
			victimIdx := 0
			for i, pv := range s.partials {
				if s.usage[pv].last < s.usage[s.partials[victimIdx]].last {
					victimIdx = i
				}
			}
			victim := s.partials[victimIdx]
			delete(s.usage, victim)
			s.usage[cand] = usage{last: s.clock.Load()}
			s.lruMu.Unlock()
			s.replaceAt(victimIdx, cand)
			return Evicted, victim
		}
		s.frozen = true
		return DiscardedLimit, nil
	}
	next := make([]*view.View, len(s.partials), len(s.partials)+1)
	copy(next, s.partials)
	s.partials = append(next, cand)
	s.lruMu.Lock()
	s.usage[cand] = usage{last: s.clock.Load()}
	s.lruMu.Unlock()
	return Inserted, nil
}

// Insert adds a view unconditionally (used by rebuilds and by experiment
// setup that creates views directly, §3.1/§3.4). It fails once maxViews is
// reached. The view starts with the current clock as its recency, like an
// adaptively inserted candidate — a pre-created view must not look
// never-used (and therefore cold) to the temperature export. Insert is a
// write operation.
func (s *Set) Insert(v *view.View) error {
	if len(s.partials) >= s.maxViews {
		return fmt.Errorf("viewset: view limit %d reached", s.maxViews)
	}
	next := make([]*view.View, len(s.partials), len(s.partials)+1)
	copy(next, s.partials)
	s.partials = append(next, v)
	s.lruMu.Lock()
	s.usage[v] = usage{last: s.clock.Load()}
	s.lruMu.Unlock()
	return nil
}

// Remove deletes a partial view from the set (the caller releases it) and
// unfreezes the set: eviction reopens capacity, so candidate generation
// resumes — the point of the temperature-driven lifecycle. It returns
// false when v is not a member. Remove is a write operation.
func (s *Set) Remove(v *view.View) bool {
	for i, pv := range s.partials {
		if pv != v {
			continue
		}
		next := make([]*view.View, 0, len(s.partials)-1)
		next = append(next, s.partials[:i]...)
		next = append(next, s.partials[i+1:]...)
		s.partials = next
		s.frozen = false
		s.lruMu.Lock()
		delete(s.usage, v)
		s.lruMu.Unlock()
		return true
	}
	return false
}

// Contains reports whether v is currently a partial-view member. Contains
// is a write-side operation (callers hold the exclusive room).
func (s *Set) Contains(v *view.View) bool {
	for _, pv := range s.partials {
		if pv == v {
			return true
		}
	}
	return false
}

// ReplaceExisting installs repl in old's slot, transferring old's
// temperature (a rebuilt view serves the same range, so its history
// carries over). It returns false when old is not a member.
// ReplaceExisting is a write operation.
func (s *Set) ReplaceExisting(old, repl *view.View) bool {
	for i, pv := range s.partials {
		if pv != old {
			continue
		}
		s.replaceAt(i, repl)
		s.lruMu.Lock()
		s.usage[repl] = s.usage[old]
		delete(s.usage, old)
		s.lruMu.Unlock()
		return true
	}
	return false
}

// Clear removes and returns all partial views (the caller releases them)
// and unfreezes the set. Used when rebuilding views from scratch. Clear is
// a write operation.
func (s *Set) Clear() []*view.View {
	out := s.partials
	s.partials = nil
	s.frozen = false
	s.lruMu.Lock()
	s.usage = make(map[*view.View]usage)
	s.lruMu.Unlock()
	return out
}

// Clock returns the current routing tick of the LRU clock. Ages derived
// from it are in "queries routed" units, which makes temperature
// thresholds deterministic and load-independent.
func (s *Set) Clock() uint64 { return s.clock.Load() }

// Temperature is one partial view's access recency/frequency, exported
// for the autopilot's temperature-driven lifecycle.
type Temperature struct {
	View     *view.View
	LastUsed uint64 // routing tick of the most recent hit (insertion tick if never routed)
	Uses     uint64 // total routing hits
}

// Temperatures snapshots every partial view's temperature. Like the rest
// of the read side it is safe for concurrent callers: the partial slice
// is an immutable snapshot and the usage map has its own lock.
func (s *Set) Temperatures() []Temperature {
	ps := s.partials // immutable snapshot
	out := make([]Temperature, 0, len(ps))
	s.lruMu.Lock()
	for _, v := range ps {
		u := s.usage[v]
		out = append(out, Temperature{View: v, LastUsed: u.last, Uses: u.uses})
	}
	s.lruMu.Unlock()
	return out
}

// CoveredInterval returns the maximal contiguous value interval containing
// [lo, hi] that the given source views cover in conjunction. The adaptive
// engine clamps candidate-range extension to this interval: pages outside
// it were never scanned, so nothing may be claimed about them (§2.2).
func (s *Set) CoveredInterval(sources []*view.View, lo, hi uint64) (uint64, uint64) {
	ivs := make([]valueInterval, 0, len(sources))
	for _, v := range sources {
		ivs = append(ivs, valueInterval{v.Lo(), v.Hi()})
	}
	// Sources that do not contiguously cover the query (routing bug or
	// caller misuse) claim nothing beyond the query itself.
	return coveredInterval(ivs, lo, hi)
}
