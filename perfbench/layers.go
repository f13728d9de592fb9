package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	asv "github.com/asv-db/asv"
)

// layers accumulates a traced round's span times. The benchmark records
// its own span around every public call it makes (the HTTP round trip,
// the handler wrapper, QueryOpt) and grafts beneath it the span tree the
// engine already emits: asv.Trace() in-process, ?trace=1 over HTTP.
type layers struct {
	queries int
	// phase sums the engine's per-query spans by name (pin, route, scan,
	// materialize, merge); on served queries it sums over shards.
	phase map[string]time.Duration

	// Engine roots (the in-process query root, the HTTP query root and
	// each shard root), and the part of them their child spans cover.
	roots, lowRoots int
	rootTime        time.Duration
	rootCovered     time.Duration

	// Benchmark op spans and the part the span beneath them covers: the
	// engine root in-process, the handler over HTTP.
	opTime, opCovered time.Duration

	// Served queries only.
	roundtrip, handler, engine, gather time.Duration
	skew                               float64

	publishNanos uint64
}

func newLayers() *layers { return &layers{phase: make(map[string]time.Duration)} }

// lowCoverage is the child-span share below which a root is flagged.
const lowCoverage = 0.95

func (l *layers) addRoot(d, covered time.Duration) {
	covered = min(covered, d)
	l.roots++
	l.rootTime += d
	l.rootCovered += covered
	if float64(covered) < lowCoverage*float64(d) {
		l.lowRoots++
	}
}

// addInproc folds one traced in-process query: d is the benchmark's span
// around QueryOpt, tr the engine's span tree.
func (l *layers) addInproc(d time.Duration, tr *asv.QueryTrace) error {
	if tr == nil || tr.Root == nil {
		return errorf("traced query returned no trace")
	}
	root := tr.Root
	l.queries++
	l.opTime += d
	l.opCovered += min(root.Dur(), d)
	for _, c := range root.Children {
		l.phase[c.Name] += c.Dur()
	}
	l.addRoot(root.Dur(), unionCovered(root))
	return nil
}

// unionCovered returns how much of the span its children cover; children
// may overlap, so their intervals are merged first.
func unionCovered(s *asv.TraceSpan) time.Duration {
	iv := make([][2]int64, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
		}
		end = max(end, v[1])
	}
	return time.Duration(total)
}

// addServed folds one traced HTTP query: its client round trip, the time
// the handler wrapper measured, and the rendered span tree of the reply.
// Shard roots run concurrently under the HTTP root, so the root counts as
// covered by its slowest shard; a shard's phases run one after another.
func (l *layers) addServed(roundtrip, handler time.Duration, text string) error {
	t, err := parseTrace(text)
	if err != nil {
		return err
	}
	if len(t.children) == 0 {
		return errorf("served trace has no shard spans")
	}
	l.queries++
	l.opTime += roundtrip
	l.opCovered += min(handler, roundtrip)
	l.roundtrip += roundtrip
	l.handler += handler
	l.engine += t.dur
	shards := make([]float64, 0, len(t.children))
	for _, s := range t.children {
		var sum time.Duration
		for _, ph := range s.children {
			l.phase[ph.name] += ph.dur
			sum += ph.dur
		}
		l.addRoot(s.dur, sum)
		shards = append(shards, float64(s.dur))
	}
	slowest := time.Duration(quantile(shards, 1))
	l.addRoot(t.dur, slowest)
	l.gather += max(0, t.dur-slowest)
	if med := medianMean(shards); med > 0 {
		l.skew += float64(slowest) / med
	}
	return nil
}

// medianMean is the median, averaging the middle pair of an even count.
func medianMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tspan is one span of a rendered trace (obs.Trace.String): one line per
// span, indented two spaces per level, fields separated by two spaces:
// name, duration, then key=value attributes.
type tspan struct {
	name     string
	dur      time.Duration
	children []*tspan
}

func parseTrace(text string) (*tspan, error) {
	var root *tspan
	var stack []*tspan
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		body := strings.TrimLeft(line, " ")
		depth := (len(line) - len(body)) / 2
		f := strings.Split(body, "  ")
		if len(f) < 2 || depth > len(stack) || (depth == 0) != (root == nil) {
			return nil, errorf("malformed trace line %q", line)
		}
		d, err := time.ParseDuration(f[1])
		if err != nil {
			return nil, errorf("trace line %q: %v", line, err)
		}
		s := &tspan{name: f[0], dur: d}
		stack = stack[:depth]
		if depth == 0 {
			root = s
		} else {
			p := stack[depth-1]
			p.children = append(p.children, s)
		}
		stack = append(stack, s)
	}
	if root == nil {
		return nil, errorf("empty trace")
	}
	return root, nil
}

// merge folds o into l.
func (l *layers) merge(o *layers) {
	l.queries += o.queries
	for k, v := range o.phase {
		l.phase[k] += v
	}
	l.roots += o.roots
	l.lowRoots += o.lowRoots
	l.rootTime += o.rootTime
	l.rootCovered += o.rootCovered
	l.opTime += o.opTime
	l.opCovered += o.opCovered
	l.roundtrip += o.roundtrip
	l.handler += o.handler
	l.engine += o.engine
	l.gather += o.gather
	l.skew += o.skew
	l.publishNanos += o.publishNanos
}

// layerMetrics fills the per-layer metrics from the traced rounds, the
// untraced rounds beside them, the kernel ladder and, on the served
// workload, the in-process FlushUpdates replay. Layers a workload does not
// run report zero time (one engine: shard skew 1).
func (b *bench) layerMetrics(m map[string]metric, out io.Writer) error {
	put := func(name string, v float64, unit string) {
		m[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "# %-30s %12.6g %s\n", name, v, unit)
	}
	l := newLayers()
	var c counts
	var tOps, pOps, pMallocs int
	var tTimed, pTimed time.Duration
	var vma float64
	for _, rd := range b.traced {
		l.merge(rd.layers)
		c.add(rd.counts)
		vma += float64(rd.counts.VMACount) / float64(len(b.traced))
		tOps += rd.ops
		tTimed += rd.timed
	}
	for _, rd := range b.plain {
		pOps += rd.ops
		pTimed += rd.timed
		pMallocs += int(rd.mallocs)
	}
	if l.queries == 0 || c.Queries == 0 || tOps == 0 {
		return errorf("traced rounds recorded no queries")
	}
	q := float64(l.queries)
	perQuery := func(d time.Duration, unit time.Duration) float64 { return float64(d) / float64(unit) / q }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	skew := 1.0
	if b.sp.shards > 0 {
		skew = l.skew / q
	}
	put("serve.handler_ms", perQuery(l.handler, time.Millisecond), "ms")
	put("serve.net_ms", perQuery(l.roundtrip-l.handler, time.Millisecond), "ms")
	put("serve.codec_ms", perQuery(l.handler-l.engine, time.Millisecond), "ms")
	put("serve.gather_ms", perQuery(l.gather, time.Millisecond), "ms")
	put("serve.shard_skew", skew, "ratio")
	put("serve.allocs_per_op", ratio(float64(pMallocs), float64(pOps)), "count")

	put("core.pin_ms", perQuery(l.phase["pin"], time.Millisecond), "ms")
	put("core.route_us", perQuery(l.phase["route"], time.Microsecond), "us")
	put("core.scan_ms", perQuery(l.phase["scan"], time.Millisecond), "ms")
	put("core.materialize_ms", perQuery(l.phase["materialize"], time.Millisecond), "ms")
	put("core.merge_ms", perQuery(l.phase["merge"], time.Millisecond), "ms")
	cq := float64(c.Queries)
	put("core.pages_per_query", float64(c.PagesScanned)/cq, "count")
	put("core.rows_examined_per_result", ratio(float64(c.PagesScanned*vpp), float64(c.ResultRows)), "ratio")
	put("core.full_view_share", float64(c.FullViewQueries)/cq, "ratio")
	put("core.candidates_per_query", float64(c.CandidatesBuilt)/cq, "count")
	put("core.candidate_keep_ratio", ratio(float64(c.CandidatesKept), float64(c.CandidatesBuilt)), "ratio")
	put("core.publish_ms_per_op", float64(l.publishNanos)/1e6/float64(tOps), "ms")

	rungs := kernelLadder(b.base, b.streams[0])
	if len(rungs) == 0 {
		return errorf("no query of the stream qualifies on any page")
	}
	top := rungs[len(rungs)-1]
	put("storage.filter_ns_per_page", top.filterNs, "ns")
	put("storage.collect_ns_per_page", top.collNs, "ns")
	put("storage.filter_hot_ns_per_page", rungs[0].filterNs, "ns")
	for _, r := range rungs {
		fmt.Fprintf(out, "#   kernel ladder: %4d distinct page(s): ScanFilter %8.1f ns/page, CollectMatches %8.1f ns/page\n",
			r.pages, r.filterNs, r.collNs)
	}
	fmt.Fprintf(out, "#   a single cache-hot page reads %.2fx faster than %d distinct pages\n",
		ratio(top.filterNs, rungs[0].filterNs), top.pages)

	put("vmsim.vma_count_end", vma, "count")
	put("vmsim.mmap_calls_per_op", float64(c.MmapCalls)/float64(tOps), "count")
	var parse, align float64
	if b.sp.shards > 0 {
		fr, err := replayFlushes(b.sp, b.seed, b.streams)
		if err != nil {
			return err
		}
		if fr.flushes > 0 {
			parse = float64(fr.parse) / 1e6 / float64(fr.flushes)
			align = float64(fr.align) / 1e6 / float64(fr.flushes)
			fmt.Fprintf(out, "#   replay: %d UpdateBatch calls, %.4g ms each; %d FlushUpdates calls, %.4g ms each\n",
				fr.updateCalls, float64(fr.updateTime)/1e6/float64(max(1, fr.updateCalls)),
				fr.flushes, float64(fr.flushTime)/1e6/float64(fr.flushes))
		}
	}
	put("procmaps.parse_ms_per_flush", parse, "ms")
	put("view.align_ms_per_flush", align, "ms")

	plainRate := float64(pOps) / pTimed.Seconds()
	tracedRate := float64(tOps) / tTimed.Seconds()
	put("obs.trace_overhead", plainRate/tracedRate, "x")
	put("trace.covered_share", ratio(float64(l.rootCovered), float64(l.rootTime)), "ratio")
	fmt.Fprintf(out, "#   untraced %.4g ops/s, traced %.4g ops/s\n", plainRate, tracedRate)
	fmt.Fprintf(out, "#   benchmark spans covered %.4f by the span beneath them\n", ratio(float64(l.opCovered), float64(l.opTime)))
	flag := ""
	if l.lowRoots > 0 {
		flag = "  <-- FLAG: child spans cover less than 95% of these roots"
	}
	fmt.Fprintf(out, "#   %d of %d engine roots have children covering less than %.0f%%%s\n",
		l.lowRoots, l.roots, lowCoverage*100, flag)
	return nil
}
