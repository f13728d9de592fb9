package main

import (
	"runtime"
	"time"

	asv "github.com/asv-db/asv"
)

// round is what one round measured. Latencies are milliseconds by op kind.
type round struct {
	setup     time.Duration
	timed     time.Duration // closed-loop time the ops took
	ops       int           // timed ops attempted
	lat       [numKinds][]float64
	answers   []answer // in-process rounds: one per op, in stream order
	attempted int
	failed    int
	mismatch  int // answers that disagree with the oracle
	heapBytes uint64
	mallocs   uint64 // process-wide heap allocations during the timed phase
	counts    counts
	layers    *layers // traced rounds only
}

// counts are the engine's work counters over one round's ops. For a seed
// they repeat exactly on the in-process workloads (TestDeterministicCounts).
type counts struct {
	Queries         int
	PagesScanned    uint64
	ResultRows      uint64
	FullViewQueries int
	CandidatesBuilt uint64
	CandidatesKept  uint64
	ViewsEnd        int
	VMACount        int64
	MmapCalls       uint64
}

func (rd *round) record(kind opKind, d time.Duration, err error) {
	rd.ops++
	rd.attempted++
	rd.timed += d
	if err != nil {
		rd.failed++
		return
	}
	rd.lat[kind] = append(rd.lat[kind], float64(d)/float64(time.Millisecond))
}

func (c *counts) addAnswer(ans asv.QueryAnswer) {
	c.add(counts{Queries: 1, PagesScanned: uint64(ans.PagesScanned), ResultRows: uint64(ans.Count),
		FullViewQueries: boolInt(ans.UsedFullView), CandidatesBuilt: uint64(boolInt(ans.CandidateBuilt))})
}

// add sums o into c. VMACount is a level, not a sum: it keeps the larger.
func (c *counts) add(o counts) {
	c.Queries += o.Queries
	c.PagesScanned += o.PagesScanned
	c.ResultRows += o.ResultRows
	c.FullViewQueries += o.FullViewQueries
	c.CandidatesBuilt += o.CandidatesBuilt
	c.CandidatesKept += o.CandidatesKept
	c.ViewsEnd += o.ViewsEnd
	c.VMACount = max(c.VMACount, o.VMACount)
	c.MmapCalls += o.MmapCalls
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

var kindOptions = [numKinds][]asv.QueryOption{
	opAgg:  {asv.Aggregate()},
	opRows: {asv.Rows()},
}

// liveHeap returns the bytes of live Go heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// openColumn creates and fills the workload's column in a fresh DB; the
// duration is the workload's setup time. The caller closes the DB.
func openColumn(sp spec, seed uint64) (*asv.DB, *asv.Column, time.Duration, error) {
	t0 := time.Now()
	g, err := sp.generator(seed)
	if err != nil {
		return nil, nil, 0, err
	}
	db, err := asv.Open(asv.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	col, err := db.CreateColumn(sp.name, sp.pages, asv.DefaultConfig())
	if err == nil {
		err = col.Fill(g)
	}
	if err != nil {
		_ = db.Close() // unwinding a failed setup; its error is returned
		return nil, nil, 0, err
	}
	return db, col, time.Since(t0), nil
}

// runInproc runs one round of a single-client workload against an
// in-process asv.Column with DefaultConfig. Timing starts with the first
// query on the freshly filled column, so view creation is paid as part of
// query processing, as users pay it. Answers are summarized between ops,
// outside the timed region, and checked against the oracle after the round.
func runInproc(sp spec, seed uint64, ops []op, traced bool) (*round, error) {
	heap0 := liveHeap()
	db, col, setup, err := openColumn(sp, seed)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rd := &round{setup: setup, answers: make([]answer, len(ops))}
	if traced {
		rd.layers = newLayers()
	}
	st0, tel0 := col.Stats(), col.Telemetry()
	malloc0 := mallocs()
	for i, o := range ops {
		opts := kindOptions[o.kind]
		if traced {
			opts = append(opts[:len(opts):len(opts)], asv.Trace())
		}
		start := time.Now()
		ans, err := col.QueryOpt(o.lo, o.hi, opts...)
		d := time.Since(start)
		rd.record(o.kind, d, err)
		if err != nil {
			rd.answers[i] = answer{Count: -1}
			continue
		}
		rd.answers[i] = engineAnswer(o.kind, ans)
		rd.counts.addAnswer(ans)
		if traced {
			if err := rd.layers.addInproc(d, ans.Trace); err != nil {
				return nil, err
			}
		}
	}
	rd.mallocs = mallocs() - malloc0
	st := col.Stats()
	tel := col.Telemetry()
	rd.counts.CandidatesKept = st.ViewsCreated + st.ViewsReplaced - st0.ViewsCreated - st0.ViewsReplaced
	rd.counts.ViewsEnd = len(col.Views())
	rd.counts.VMACount = tel.Gauges["map_vma_count"]
	rd.counts.MmapCalls = tel.Counters["map_mmap_calls"] - tel0.Counters["map_mmap_calls"]
	if rd.layers != nil {
		rd.layers.publishNanos = st.PublishNanos - st0.PublishNanos
	}
	if h := liveHeap(); h > heap0 {
		rd.heapBytes = h - heap0
	}
	return rd, nil
}

// checkInproc compares every answer of a round with the oracle's.
func checkInproc(rd *round, want []answer) {
	for i, a := range rd.answers {
		if a != want[i] {
			rd.mismatch++
		}
	}
}

// expectedAnswers computes the oracle's answer to every op of a stream.
func expectedAnswers(o *oracle, ops []op) []answer {
	out := make([]answer, len(ops))
	for i, q := range ops {
		out[i] = o.answer(q.kind, q.lo, q.hi)
	}
	return out
}
