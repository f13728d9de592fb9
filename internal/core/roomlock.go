package core

import (
	"sync"
	"time"

	"github.com/asv-db/asv/internal/obs"
)

// roomLock is the engine's two-mode lock over a sync.RWMutex:
//
//   - update (shared): any number of holders at once. Update callers
//     take it (each also holds a per-shard buffer lock, which serializes
//     same-page writes), and so do the read-only users of the view set —
//     Views, String and the autopilot's temperature and demotion passes.
//     No holder of this mode writes the view set.
//   - exclusive: flush/alignment, view-set mutation, close.
//
// Epoch-routed queries never take it: they read published immutable
// states (see Engine). Fairness is the RWMutex's: a waiting Lock blocks
// new shared entries, and Unlock admits the shared holders that queued
// behind it, so a saturating stream of writers cannot starve flushes and
// vice versa.
//
// It must not be copied after first use.
type roomLock struct {
	rw sync.RWMutex

	// obs observes queued-entry wait per mode and exclusive hold time;
	// set once, before first use. Uncontended entries take the
	// TryRLock/TryLock fast path and never touch the clock for wait.
	// lockedAt stamps the current exclusive entry (guarded by rw).
	obs      *roomObs
	lockedAt time.Time
}

// roomObs is the room lock's telemetry sink.
type roomObs struct {
	waitUpdate *obs.Histogram
	waitExcl   *obs.Histogram
	holdExcl   *obs.Histogram
}

// UpdateLock enters the shared mode.
//
//asv:acquires=update
func (l *roomLock) UpdateLock() {
	if l.rw.TryRLock() {
		return
	}
	t0 := time.Now()
	l.rw.RLock()
	l.obs.waitUpdate.Observe(uint64(time.Since(t0)))
}

// UpdateUnlock leaves the shared mode.
//
//asv:releases=update
func (l *roomLock) UpdateUnlock() { l.rw.RUnlock() }

// Lock enters the exclusive mode (flush/alignment, view-set mutation).
//
//asv:acquires=exclusive
func (l *roomLock) Lock() {
	if !l.rw.TryLock() {
		t0 := time.Now()
		l.rw.Lock()
		l.obs.waitExcl.Observe(uint64(time.Since(t0)))
	}
	l.lockedAt = time.Now()
}

// Unlock leaves the exclusive mode.
//
//asv:releases=exclusive
func (l *roomLock) Unlock() {
	l.obs.holdExcl.Observe(uint64(time.Since(l.lockedAt)))
	l.rw.Unlock()
}
