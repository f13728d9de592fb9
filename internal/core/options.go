package core

import (
	"github.com/asv-db/asv/internal/bitvec"
	"github.com/asv-db/asv/internal/obs"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/view"
	"github.com/asv-db/asv/internal/viewset"
)

// QueryOptions configures QueryOpt — the single options-based read entry
// point the former Query/QueryParallel/QueryRows/QueryAggregate quartet
// now wraps.
type QueryOptions struct {
	// CollectRows materializes the qualifying row IDs into Answer.Rows.
	CollectRows bool
	// ComputeAggregate computes count/sum/min/max into Answer.Agg.
	ComputeAggregate bool
	// Workers overrides the scan worker count when HasWorkers is set:
	// a positive value is taken literally, zero or negative selects
	// GOMAXPROCS. Unset defers to Config.Parallelism.
	Workers    int
	HasWorkers bool
	// Trace, when non-nil, records a span tree for this one query —
	// state pin, routing, per-view scanning with tier/fault attribution,
	// candidate materialization and the publication tail — into the
	// trace's root span and returns it on Answer.Trace. Nil (the
	// default) keeps the query path allocation-free: every trace site is
	// a nil span test, like Engine.tier. Spans are recorded only by the
	// coordinating goroutine; sharded scan workers never touch the
	// trace.
	Trace *obs.Trace
}

// Answer is the unified result of QueryOpt: the routing telemetry every
// query reports, plus the optional materializations the options asked
// for (nil when not requested).
type Answer struct {
	QueryResult
	Rows *RowSet
	Agg  *Aggregate
	// Trace echoes QueryOptions.Trace with the recorded span tree (nil
	// when tracing was off).
	Trace *obs.Trace
}

// QueryOpt answers the inclusive range query [lo, hi] according to the
// options, creating and maintaining partial views as a side product
// (Listing 1) exactly like Query.
//
// Reads are epoch-routed and lock-free: the query pins the current
// immutable engine state (published via atomic pointer), routes and
// scans against its capture, and never enters the room lock —
// alignment, rebuilds and autopilot lifecycle work holding the
// exclusive room do not stall readers. Updates pending at entry are
// flushed first (§2.4: views must reflect every applied write before
// answering); a write that lands after the flush is serialized after
// this query and becomes visible with the next published state.
func (e *Engine) QueryOpt(lo, hi uint64, opt QueryOptions) (Answer, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	e.stats.queries.Add(1)
	if opt.Trace != nil {
		return e.queryOptTraced(lo, hi, opt)
	}
	if !e.cfg.Adaptive {
		if err := e.flushPendingForRead(); err != nil {
			return Answer{}, err
		}
		st := e.acquireState()
		defer e.releaseState(st)
		ans, err := e.answerState(st, lo, hi, opt, false)
		e.journalTierPromotions()
		return ans, err
	}
	if err := e.flushPendingForRead(); err != nil {
		return Answer{}, err
	}
	st := e.acquireState()
	ans, cand, err := e.answerStateAdapt(st, lo, hi, opt)
	gen := st.gen
	e.releaseState(st)
	if err != nil {
		return ans, err
	}
	err = e.finishAdaptive(&ans, cand, gen)
	e.journalTierPromotions()
	return ans, err
}

// finishAdaptive runs the shared tail of every adaptive read path:
// publish the candidate the pinned scan built (if any) under the
// exclusive room and apply the retention decision's side effects to the
// answer. Epoch, traced and snapshot-adaptive reads all end here, so
// the publication protocol cannot silently diverge between them.
func (e *Engine) finishAdaptive(ans *Answer, cand *view.View, gen uint64) error {
	if cand == nil {
		return nil
	}
	dec, displaced := e.publishCandidate(cand, gen)
	ans.CandidateBuilt = true
	ans.Decision = dec
	return e.applyDecision(dec, cand, displaced)
}

// flushPendingForRead flushes the buffered update batch, if any, so the
// next published state reflects every applied write. One pass suffices:
// whatever was buffered at entry is drained and published; a write
// racing in afterwards is serialized after this reader.
func (e *Engine) flushPendingForRead() error {
	if e.pendingCount.Load() == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pendingCount.Load() == 0 {
		return nil
	}
	_, err := e.flushLocked()
	return err
}

// answerState answers [lo, hi] against a pinned state without adaptive
// side effects — the snapshot and baseline read path. countQuery is set
// by callers that did not already bump the query counter (the Snapshot
// handle); Engine.QueryOpt counts at its own entry.
func (e *Engine) answerState(st *engineState, lo, hi uint64, opt QueryOptions, countQuery bool) (Answer, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if countQuery {
		e.stats.queries.Add(1)
	}
	var ans Answer
	ans.Trace = opt.Trace
	collect := e.buildCollect(lo, hi, opt, &ans)
	workers := e.resolveOptWorkers(opt)
	res, qual, _, err := e.scanState(st, lo, hi, collect, workers, false, traceRoot(opt))
	ans.QueryResult = res
	if err != nil {
		return ans, err
	}
	ans.Agg = aggregateOf(opt, qual)
	return ans, nil
}

// resolveOptWorkers maps the options' worker override (or its absence)
// to the effective parallelism knob value.
func (e *Engine) resolveOptWorkers(opt QueryOptions) int {
	if !opt.HasWorkers {
		return resolveWorkers(e.cfg.Parallelism)
	}
	if opt.Workers <= 0 {
		return resolveWorkers(-1)
	}
	return resolveWorkers(opt.Workers)
}

// buildCollect returns the page-collect callback of a Rows() query, or
// nil when rows were not requested. It is the one second pass a query
// makes over a page: CollectMatches sets the qualifying slots' row IDs
// in Answer.Rows. Aggregates need no second pass (see aggregateOf).
func (e *Engine) buildCollect(lo, hi uint64, opt QueryOptions, ans *Answer) func(uint64, []byte) {
	if !opt.CollectRows {
		return nil
	}
	rs := NewRowSet(e.col.Rows())
	ans.Rows = rs
	return func(pid uint64, pg []byte) {
		base := int(pid) * storage.ValuesPerPage
		storage.CollectMatches(pg, lo, hi, func(slot int, _ uint64) {
			rs.Add(base + slot)
		})
	}
}

// aggregateOf is the Answer.Agg of a query that asked for one (nil
// otherwise): count, sum, min and max of the scan's merged qualifying
// PageScan, which the one filtering pass over each page computed.
func aggregateOf(opt QueryOptions, qual storage.PageScan) *Aggregate {
	if !opt.ComputeAggregate {
		return nil
	}
	return &Aggregate{Count: qual.Count, Sum: qual.Sum, Min: qual.Min, Max: qual.Max}
}

// answerStateAdapt runs the full Listing-1 path against a pinned state:
// route, scan, materialize options, and build the candidate view for the
// caller to publish under the exclusive room.
func (e *Engine) answerStateAdapt(st *engineState, lo, hi uint64, opt QueryOptions) (Answer, *view.View, error) {
	var ans Answer
	ans.Trace = opt.Trace
	collect := e.buildCollect(lo, hi, opt, &ans)
	workers := e.resolveOptWorkers(opt)
	res, qual, cand, err := e.scanState(st, lo, hi, collect, workers, true, traceRoot(opt))
	ans.QueryResult = res
	if err != nil {
		return ans, cand, err
	}
	ans.Agg = aggregateOf(opt, qual)
	return ans, cand, nil
}

// routeState returns the capture-side source views for [lo, hi]
// according to the configured mode and multi-view policy — the epoch
// counterpart of the live-set routing of §2.1.
func (e *Engine) routeState(snap *viewset.Snapshot, lo, hi uint64) []*viewset.SnapView {
	if e.cfg.Mode != MultiView {
		return []*viewset.SnapView{snap.RouteSingle(lo, hi)}
	}
	multi := snap.RouteMulti(lo, hi)
	if multi == nil {
		return []*viewset.SnapView{snap.RouteSingle(lo, hi)}
	}
	if e.cfg.MultiViewPolicy == PreferMulti {
		// The paper's current policy: use multiple views whenever they
		// cover the range, "instead of directing the query to a single
		// (potentially larger) view".
		return multi
	}
	// CostBased — compare the cover's total page count (an upper bound:
	// shared pages are deduplicated at scan time) against the cheapest
	// single covering view and take the cheaper plan.
	single := snap.RouteSingle(lo, hi)
	coverPages := 0
	for _, v := range multi {
		coverPages += v.NumPages()
	}
	if single.NumPages() <= coverPages {
		return []*viewset.SnapView{single}
	}
	return multi
}

// scanState is the pinned-state body of a routed query: route over the
// capture, scan every source (through the parallel kernel when workers >
// 1), and — when adapt is set and the capture permits — build the
// candidate view from query-private state for the caller to publish.
// It also returns the merged PageScan of every qualifying page, whose
// count and sum are the answer's and whose min and max an aggregate
// reports. Nothing here reads live view or set fields, which is what
// lets any number of scans overlap alignment, rebuilds and retirement.
func (e *Engine) scanState(st *engineState, lo, hi uint64, collect func(uint64, []byte), workers int, adapt bool, tsp *obs.Span) (QueryResult, storage.PageScan, *view.View, error) {
	if !e.cfg.Adaptive {
		res, qual, err := e.fullScanState(st, lo, hi, collect, workers, tsp)
		return res, qual, nil, err
	}
	var qual storage.PageScan
	snap := st.snap
	route := tsp.Child("route")
	sources := e.routeState(snap, lo, hi)
	res := QueryResult{ViewsUsed: len(sources)}
	for _, sv := range sources {
		if sv.Full() {
			res.UsedFullView = true
			e.stats.fullViewQueries.Add(1)
		}
	}
	if route != nil {
		route.SetAttr("views", int64(len(sources)))
		if res.UsedFullView {
			route.SetAttr("full_view", 1)
		}
		route.Finish()
	}
	scanSp := tsp.Child("scan")
	tierBase, mapBase := e.traceBaselines(scanSp)
	var processed *bitvec.Vector
	if len(sources) > 1 {
		processed = e.getProcessed()
		defer e.putProcessed(processed)
	}
	var builder *view.Builder
	// Candidate construction keys off the capture: a frozen capture or a
	// state published by Close skips building rather than mmap-and-
	// release on every query (stale decisions are re-checked at
	// publication anyway).
	if adapt && !snap.Frozen() && !st.closed {
		var err error
		builder, err = view.NewBuilder(e.col, e.cfg.Create, e.mapper)
		if err != nil {
			return res, qual, nil, err
		}
	}
	ext := view.NewRangeExtender(lo, hi)
	filter := e.pageFilter(lo, hi)
	var emit func(pid uint64, pg []byte)
	if collect != nil || builder != nil {
		emit = func(pid uint64, pg []byte) {
			if collect != nil {
				collect(pid, pg)
			}
			if builder != nil {
				builder.AddPage(int(pid))
			}
		}
	}
	for _, sv := range sources {
		n := sv.NumPages()
		var vsp *obs.Span
		var vspBefore int
		if scanSp != nil {
			vspBefore = res.PagesScanned
			vsp = scanSp.Child("view")
			vsp.SetAttr("lo", int64(sv.Lo()))
			vsp.SetAttr("hi", int64(sv.Hi()))
			vsp.SetAttr("tlb_pages", int64(n))
			if sv.Lazy() {
				vsp.SetAttr("lazy", 1)
			}
		}
		fetch := func(i int) ([]byte, error) { return sv.PageBytes(i), nil }
		if processed != nil {
			if workers <= 1 {
				// Serial multi-view scan: keep dedup and filter fused in
				// one allocation-free pass (the paper's hot path).
				for i := 0; i < n; i++ {
					pg := sv.PageBytes(i)
					pid := storage.PageID(pg)
					if processed.TestAndSet(int(pid)) {
						continue
					}
					s := filter(pg)
					res.PagesScanned++
					if s.Count == 0 {
						ext.ObserveExcluded(s)
						continue
					}
					qual.Merge(s)
					if emit != nil {
						emit(pid, pg)
					}
				}
				if vsp != nil {
					vsp.SetAttr("pages_scanned", int64(res.PagesScanned-vspBefore))
					vsp.Finish()
				}
				continue
			}
			// Sharded multi-view scan: resolve this source's
			// not-yet-processed pages in scan order before splitting —
			// TestAndSet stays single-threaded (bitvec is not atomic).
			refs := make([][]byte, 0, n)
			for i := 0; i < n; i++ {
				pg := sv.PageBytes(i)
				if processed.TestAndSet(int(storage.PageID(pg))) {
					continue
				}
				refs = append(refs, pg)
			}
			n = len(refs)
			fetch = func(i int) ([]byte, error) { return refs[i], nil }
		}
		q, excl, err := e.scanPagesAdaptive(n, workers, lo, hi, fetch, emit)
		if err != nil {
			if builder != nil {
				_ = builder.Abort() //asv:ignore-err aborting the candidate after a scan error; that error is returned
			}
			return res, qual, nil, err
		}
		res.PagesScanned += n
		qual.Merge(q)
		ext.ObserveExcluded(excl)
		if vsp != nil {
			vsp.SetAttr("pages_scanned", int64(res.PagesScanned-vspBefore))
			vsp.Finish()
		}
	}
	res.Count, res.Sum = qual.Count, qual.Sum
	e.stats.pagesScanned.Add(uint64(res.PagesScanned))
	if scanSp != nil {
		e.finishScanSpan(scanSp, &res, tierBase, mapBase)
	}

	if builder == nil {
		return res, qual, nil, nil
	}
	cLo, cHi := ext.Range()
	srcLo, srcHi := snap.CoveredInterval(sources, lo, hi)
	if cLo < srcLo {
		cLo = srcLo
	}
	if cHi > srcHi {
		cHi = srcHi
	}
	mat := tsp.Child("materialize")
	cand, err := builder.Finish(cLo, cHi)
	mat.Finish()
	if err != nil {
		return res, qual, nil, err
	}
	return res, qual, cand, nil
}

// fullScanState answers [lo, hi] from the state's captured full view —
// the baseline path — and returns the merged qualifying PageScan like
// scanState. The same page-sharded kernel serves aggregates and
// collecting callers; the autopilot's cost model picks the fan-out and
// is fed the observed wall time exactly like the routed path.
func (e *Engine) fullScanState(st *engineState, lo, hi uint64, collect func(uint64, []byte), workers int, tsp *obs.Span) (QueryResult, storage.PageScan, error) {
	res := QueryResult{ViewsUsed: 1, UsedFullView: true}
	full := st.snap.Full()
	n := full.NumPages()
	scanSp := tsp.Child("scan")
	tierBase, mapBase := e.traceBaselines(scanSp)
	if scanSp != nil {
		scanSp.SetAttr("tlb_pages", int64(n))
	}
	fetch := func(i int) ([]byte, error) { return full.PageBytes(i), nil }
	qual, _, err := e.scanPagesAdaptive(n, workers, lo, hi, fetch, collect)
	if err != nil {
		return res, qual, err
	}
	res.Count = qual.Count
	res.Sum = qual.Sum
	res.PagesScanned = n
	e.stats.pagesScanned.Add(uint64(n))
	e.stats.fullViewQueries.Add(1)
	if scanSp != nil {
		e.finishScanSpan(scanSp, &res, tierBase, mapBase)
	}
	return res, qual, nil
}
