package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asv-db/asv/internal/dist"
)

// newTestRoomLock returns a room lock wired to fresh instruments, as
// NewEngine wires the engine's.
func newTestRoomLock() *roomLock { return &roomLock{obs: &newEngineInstruments().room} }

// TestRoomLockExclusionInvariants hammers both modes and asserts the
// exclusion matrix inside every critical section: shared holders never
// overlap an exclusive holder, and the exclusive mode holds alone.
func TestRoomLockExclusionInvariants(t *testing.T) {
	var (
		l             = newTestRoomLock()
		shared, excls atomic.Int64
		violations    atomic.Int64
		wg            sync.WaitGroup
		check         = func(cond bool) {
			if !cond {
				violations.Add(1)
			}
		}
	)
	const iters = 400
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				l.UpdateLock()
				shared.Add(1)
				check(excls.Load() == 0)
				shared.Add(-1)
				l.UpdateUnlock()
			}
		}()
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				l.Lock()
				check(excls.Add(1) == 1)
				check(shared.Load() == 0)
				excls.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d exclusion violations", v)
	}
	if n := l.obs.holdExcl.Snapshot().Count; n != 4*iters {
		t.Fatalf("exclusive hold observed %d times, want one per entry (%d)", n, 4*iters)
	}
}

// TestRoomLockSharedRoomsOverlap verifies that the shared mode really
// admits concurrent holders: two holders must be able to sit inside it
// at the same time.
func TestRoomLockSharedRoomsOverlap(t *testing.T) {
	l := newTestRoomLock()
	l.UpdateLock()
	entered := make(chan struct{})
	go func() {
		l.UpdateLock()
		close(entered)
		l.UpdateUnlock()
	}()
	<-entered // deadlocks (test timeout) if the mode is not shared
	l.UpdateUnlock()
}

// TestConcurrentWritersAndFlushersProgress is the lock's starvation
// test on a live engine: saturating UpdateBatch writers (shared mode)
// race a FlushUpdates loop (exclusive mode, alignment over real views),
// and both sides must finish a fixed budget before the deadline. A lock
// that let either side starve the other would miss it. Afterwards every
// write must be applied and aligned.
func TestConcurrentWritersAndFlushersProgress(t *testing.T) {
	const (
		pages    = 64
		writers  = 4
		batches  = 150
		batch    = 16
		flushes  = 150
		deadline = 60 * time.Second
	)
	col := testColumn(t, pages, dist.NewSine(3, 0, ccDomain, 8))
	eng := newEngine(t, col, syncConfig())
	for _, r := range [][2]uint64{{0, ccDomain / 4}, {ccDomain / 2, ccDomain/2 + ccDomain/8}} {
		if _, err := eng.CreateView(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	rows := col.Rows()
	// Writer w owns the rows congruent to w mod writers, so the last
	// value each row received is known without ordering the writers.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := make([]RowWrite, batch)
			for b := 0; b < batches; b++ {
				for i := range ws {
					ws[i] = RowWrite{Row: ((b*batch+i)*writers + w) % rows, Value: uint64(b)}
				}
				if err := eng.UpdateBatch(ws); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 0; f < flushes; f++ {
			if _, err := eng.FlushUpdates(); err != nil {
				fail(err)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("writers and flusher did not finish their budgets within %s", deadline)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if _, err := eng.FlushUpdates(); err != nil {
		t.Fatal(err)
	}
	if n := eng.PendingUpdates(); n != 0 {
		t.Fatalf("%d updates still pending after the final flush", n)
	}
	if got, want := eng.Stats().UpdatesBuffered, uint64(writers*batches*batch); got != want {
		t.Fatalf("updates buffered = %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		row := (((batches-1)*batch)*writers + w) % rows
		v, err := col.Value(row)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(batches-1) {
			t.Fatalf("row %d = %d, want the last write %d", row, v, batches-1)
		}
	}
}
