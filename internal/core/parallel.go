package core

import (
	"sync"
	"time"

	"github.com/asv-db/asv/internal/storage"
)

// minParallelScanPages aliases the storage layer's sharding threshold so
// both kernels agree on when a scan is too small to split.
const minParallelScanPages = storage.MinParallelScanPages

// scanPagesAdaptive wraps scanPages with the autopilot's adaptive
// parallelism: when a cost model runs, the worker count is chosen per
// operation from the routed page count (capped by the caller's static
// knob, respecting minParallelScanPages) and the observed wall time is
// fed back. Worker count never changes scan results — shards reduce in
// page order — so adaptivity is invisible to answers and candidates.
func (e *Engine) scanPagesAdaptive(n, workers int, lo, hi uint64,
	fetch func(int) ([]byte, error),
	emit func(pid uint64, pg []byte)) (qual, excl storage.PageScan, err error) {

	filter := e.pageFilter(lo, hi)
	w := workers
	if e.model != nil {
		w = e.model.ScanWorkers(n, workers, minParallelScanPages)
	}
	t0 := time.Now()
	qual, excl, err = scanPages(n, w, filter, fetch, emit)
	if err == nil {
		elapsed := time.Since(t0)
		if e.model != nil {
			e.model.ObserveScan(n, w, elapsed)
		}
		if n > 0 {
			e.ins.scanNsPerPage.Observe(uint64(elapsed) / uint64(n))
		}
	}
	return qual, excl, err
}

// scanPages is the engine-side parallel scan kernel: it filters n pages
// through the caller's filter closure (plain ScanFilter, or the
// tier-bracketed variant when a second tier runs) with `workers`
// page-sharded goroutines and reduces the shards in page order with
// storage.PageScan.Merge, so every aggregate is byte-identical to the
// serial loop.
//
// fetch(i) resolves the i-th page and must be safe for concurrent calls —
// view and column soft-TLBs are fully resolved before a scan can reach
// them, making page access a pure read. Each page is read once here: the
// filter's single pass yields everything an aggregate needs. The returned
// `qual` merges the pages with at least one match (its Count, Sum, Min
// and Max are the query's answer and aggregate); `excl` merges the
// zero-match pages (its boundary fields feed candidate-range extension,
// §2.2).
//
// emit, when non-nil, is invoked for every qualifying page strictly in
// page order from the calling goroutine — the candidate builder and the
// Rows() collector depend on that order — after the sharded scan joins (or
// inline on the serial path). With one worker, a small n, or emit-only
// runs the kernel degenerates to the plain serial loop.
func scanPages(n, workers int, filter func([]byte) storage.PageScan,
	fetch func(int) ([]byte, error),
	emit func(pid uint64, pg []byte)) (qual, excl storage.PageScan, err error) {

	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallelScanPages {
		for i := 0; i < n; i++ {
			pg, ferr := fetch(i)
			if ferr != nil {
				return qual, excl, ferr
			}
			s := filter(pg)
			if s.Count == 0 {
				excl.Merge(s)
				continue
			}
			qual.Merge(s)
			if emit != nil {
				emit(storage.PageID(pg), pg)
			}
		}
		return qual, excl, nil
	}

	type shard struct {
		qual, excl storage.PageScan
		hits       [][]byte // qualifying pages of the block, in page order
		err        error
	}
	shards := make([]shard, workers)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start, end := w*per, (w+1)*per
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			sh := &shards[w]
			for i := start; i < end; i++ {
				pg, ferr := fetch(i)
				if ferr != nil {
					sh.err = ferr
					return
				}
				s := filter(pg)
				if s.Count == 0 {
					sh.excl.Merge(s)
					continue
				}
				sh.qual.Merge(s)
				if emit != nil {
					sh.hits = append(sh.hits, pg)
				}
			}
		}(w, start, end)
	}
	wg.Wait()

	for w := range shards {
		if shards[w].err != nil {
			return qual, excl, shards[w].err
		}
	}
	// Reduce in block order: blocks are contiguous page ranges, so this
	// replays the serial page order exactly.
	for w := range shards {
		qual.Merge(shards[w].qual)
		excl.Merge(shards[w].excl)
		if emit != nil {
			for _, pg := range shards[w].hits {
				emit(storage.PageID(pg), pg)
			}
		}
	}
	return qual, excl, nil
}
