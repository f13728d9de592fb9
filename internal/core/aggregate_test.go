package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/xrand"
)

// aggregate is the oracle's Aggregate() answer: count, wrapping sum, min
// and max of the values in [lo, hi], with Min and Max 0 when none
// qualifies.
func (m *refModel) aggregate(lo, hi uint64) Aggregate {
	var a Aggregate
	for _, v := range m.vals {
		if v < lo || v > hi {
			continue
		}
		if a.Count == 0 || v < a.Min {
			a.Min = v
		}
		if a.Count == 0 || v > a.Max {
			a.Max = v
		}
		a.Count++
		a.Sum += v
	}
	return a
}

// TestAggregateMatchesOracle checks every Aggregate() answer the engine
// gives against a plain []uint64 column: the aggregate's count, sum, min
// and max and the answer's count and sum. It covers every generator,
// ranges from empty to the whole domain, serial and sharded scans, the
// single-view, multi-view and full-scan configurations, live queries and
// a pinned snapshot, before and after an update batch whose flush
// enlarges page zones. Aggregates come from the scan kernel's one pass,
// so this is the check that the kernel, the shard reducer and every read
// path agree with a brute-force scan.
func TestAggregateMatchesOracle(t *testing.T) {
	const pages = 128
	multi := syncConfig()
	multi.Mode = MultiView
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"multiview", multi},
		{"baseline", BaselineConfig()},
	}
	type rng struct{ lo, hi uint64 }
	ranges := func(r *xrand.Rand) []rng {
		out := []rng{
			{ccDomain + 1, ccDomain + 1000}, // empty: above every value
			{0, math.MaxUint64},             // the whole domain
		}
		for _, width := range []uint64{ccDomain / 1000, ccDomain / 100, ccDomain / 10} {
			for range 3 {
				lo := r.Uint64n(ccDomain - width)
				out = append(out, rng{lo, lo + width})
			}
		}
		return out
	}
	for _, name := range dist.Names() {
		for _, c := range configs {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				g, err := dist.ByName(name, 11, 0, ccDomain, pages)
				if err != nil {
					t.Fatal(err)
				}
				col := testColumn(t, pages, g)
				eng := newEngine(t, col, c.cfg)
				oracle := newRefModel(col)
				r := xrand.New(17)
				check := func(phase string) {
					t.Helper()
					for _, q := range ranges(r) {
						want := oracle.aggregate(q.lo, q.hi)
						for _, workers := range []int{1, 4} {
							opt := QueryOptions{ComputeAggregate: true, Workers: workers, HasWorkers: true}
							live, err := eng.QueryOpt(q.lo, q.hi, opt)
							if err != nil {
								t.Fatal(err)
							}
							snap, err := eng.Snapshot()
							if err != nil {
								t.Fatal(err)
							}
							pinned, err := snap.QueryOpt(q.lo, q.hi, opt)
							if cerr := snap.Close(); cerr != nil {
								t.Fatal(cerr)
							}
							if err != nil {
								t.Fatal(err)
							}
							for _, got := range []struct {
								path string
								ans  Answer
							}{{"live", live}, {"snapshot", pinned}} {
								ans := got.ans
								where := fmt.Sprintf("%s %s workers=%d [%d,%d]", phase, got.path, workers, q.lo, q.hi)
								if ans.Agg == nil {
									t.Fatalf("%s: no aggregate", where)
								}
								if *ans.Agg != want {
									t.Fatalf("%s: aggregate %+v, oracle %+v", where, *ans.Agg, want)
								}
								if ans.Count != want.Count || ans.Sum != want.Sum {
									t.Fatalf("%s: answer count/sum %d/%d, oracle %d/%d",
										where, ans.Count, ans.Sum, want.Count, want.Sum)
								}
							}
						}
					}
				}
				check("before updates")

				// Scatter writes over the column, half of them at the
				// domain's ends, so page zones enlarge past the values
				// the pages held when filled.
				ws := make([]RowWrite, 0, 256)
				for i := range cap(ws) {
					v := r.Uint64n(ccDomain + 1)
					switch i % 4 {
					case 0:
						v = 0
					case 1:
						v = ccDomain
					}
					ws = append(ws, RowWrite{Row: r.Intn(col.Rows()), Value: v})
				}
				if err := eng.UpdateBatch(ws); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.FlushUpdates(); err != nil {
					t.Fatal(err)
				}
				for _, w := range ws {
					oracle.update(w.Row, w.Value)
				}
				check("after updates")
			})
		}
	}
}
