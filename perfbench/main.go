// Command perfbench is the repository's benchmark. It runs one workload
// (sine_adaptive, uniform_scan or serve_mixed) against the public entry
// points, checks every answer against a plain []uint64 oracle, prints a
// report and, as its last line, one JSON result:
//
//	{"correct": true, "attempted": 900, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run of the same op streams reports the per-layer ones. See
// README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// A run repeats rounds until its time is spent, with at least minRounds
// untraced rounds. Throughput and medians are medians over rounds, so one
// round slowed by a noisy neighbour does not move them; tails pool every
// round's samples. Setup time is the median of at least minSetups setups.
const (
	minRounds = 3
	minSetups = 7
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sine_adaptive, uniform_scan, serve_mixed, or all to run each in turn")
	seed := fs.Uint64("seed", 1, "seed of the column contents and op streams")
	seconds := fs.Int("seconds", 25, "time the rounds of one run measure")
	trace := fs.Int("trace", 0, "1 runs traced rounds and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		code := 0
		for _, sp := range specs {
			code = max(code, run([]string{"--workload", sp.name, "--seed", strconv.FormatUint(*seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace)}, out))
		}
		return code
	}
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	res, err := runWorkload(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: answers disagree with the oracle or operations failed")
		return 1
	}
	return 0
}

func errorf(format string, args ...any) error { return fmt.Errorf("perfbench: "+format, args...) }

// bench is one run of one workload: its inputs and the rounds it measured.
type bench struct {
	sp      spec
	seed    uint64
	streams [][]op
	base    *oracle  // the column as filled
	verify  []op     // served: checked after the round
	want    []answer // expected answers: per op in-process, per verify op served
	plain   []*round
	traced  []*round
	setups  []float64
}

func runWorkload(sp spec, seed uint64, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	g, err := sp.generator(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{sp: sp, seed: seed, streams: sp.streams(seed), base: newOracle(g, sp.pages)}
	if sp.shards == 0 {
		b.want = expectedAnswers(b.base, b.streams[0])
	} else {
		b.verify = verifyOps(seed)
		b.want = expectedAnswers(finalOracle(b.base, b.streams), b.verify)
	}
	if !traced {
		b.base = nil // the kernel ladder of traced runs is its only other user
	}
	start := time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		rd, err := b.round(tr)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, rd.setup.Seconds())
		if tr {
			b.traced = append(b.traced, rd)
		} else {
			b.plain = append(b.plain, rd)
		}
		need := minRounds
		if traced {
			need = 1
		}
		if time.Since(start) >= budget && len(b.plain) >= need && (!traced || len(b.traced) > 0) {
			break
		}
	}
	for !traced && len(b.setups) < minSetups {
		d, err := b.setupOnly()
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, d.Seconds())
	}

	res := &result{Metrics: make(map[string]metric)}
	for _, rd := range append(append([]*round(nil), b.plain...), b.traced...) {
		res.Attempted += rd.attempted
		res.Failed += rd.failed + rd.mismatch
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "# workload %s seed %d: %d pages, %d client(s) closed loop, %d ops per client per round, %d+%d rounds (untraced+traced)\n",
		sp.name, seed, sp.pages, sp.clients, sp.opsPerClient, len(b.plain), len(b.traced))
	fmt.Fprintf(out, "# fail_ratio %.6g (%d of %d operations failed, were refused or disagreed with the oracle)\n",
		float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted)
	if traced {
		if err := b.layerMetrics(res.Metrics, out); err != nil {
			return nil, err
		}
	} else {
		b.endToEnd(res.Metrics, out)
	}
	return res, nil
}

func (b *bench) round(traced bool) (*round, error) {
	if b.sp.shards > 0 {
		return runServed(b.sp, b.seed, b.streams, b.verify, b.want, traced)
	}
	rd, err := runInproc(b.sp, b.seed, b.streams[0], traced)
	if err == nil {
		checkInproc(rd, b.want)
	}
	return rd, err
}

// setupOnly measures one more setup without running ops.
func (b *bench) setupOnly() (time.Duration, error) {
	if b.sp.shards > 0 {
		s, err := startServer(b.sp, b.seed, false)
		if err != nil {
			return 0, err
		}
		s.stop()
		return s.setup, nil
	}
	db, _, d, err := openColumn(b.sp, b.seed)
	if err != nil {
		return 0, err
	}
	return d, db.Close()
}

// endToEnd fills the end-to-end metrics from the untraced rounds.
func (b *bench) endToEnd(m map[string]metric, out io.Writer) {
	put := func(name string, v float64, unit string) {
		m[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "# %-16s %12.6g %s\n", name, v, unit)
	}
	put("setup_s", median(b.setups), "s")
	var rate, heap []float64
	for _, rd := range b.plain {
		rate = append(rate, float64(rd.ops)/rd.timed.Seconds())
		heap = append(heap, float64(rd.heapBytes)/(1<<20))
	}
	put("ops_per_s", median(rate), "1/s")
	for k := opKind(0); k < numKinds; k++ {
		var all, p50 []float64
		for _, rd := range b.plain {
			all = append(all, rd.lat[k]...)
			p50 = append(p50, median(rd.lat[k]))
		}
		if len(all) == 0 {
			continue
		}
		// The nominal sample count, not the drawn one, picks the
		// percentile, so every seed reports the same percentile.
		nominal := b.sp.mix[k] * b.sp.opsPerClient * b.sp.clients * minRounds / 100
		q, ok := tailQuantile(nominal)
		name := kindName[k]
		put(name+"_p50_ms", median(p50), "ms")
		put(name+"_tail_ms", quantile(all, q), "ms")
		note := ""
		if !ok {
			note = ", fewer than 10 samples beyond it"
		}
		fmt.Fprintf(out, "#   %s_tail_ms is p%.0f over %d samples (chosen for the %d expected in %d rounds%s)\n",
			name, q*100, len(all), nominal, minRounds, note)
	}
	put("heap_mb", median(heap), "MiB")
	for _, k := range []opKind{opRows, opWrite} {
		// The end-to-end metric set is the same on every workload, and only
		// some workloads issue these kinds, so they are reported here only.
		delete(m, kindName[k]+"_p50_ms")
		delete(m, kindName[k]+"_tail_ms")
	}
	for i, rd := range b.plain {
		fmt.Fprintf(out, "# round %d: setup %.4g s, %.4g ops/s, count p50 %.4g ms, agg p50 %.4g ms, counts %+v\n",
			i+1, rd.setup.Seconds(), float64(rd.ops)/rd.timed.Seconds(), median(rd.lat[opCount]), median(rd.lat[opAgg]), rd.counts)
	}
}
