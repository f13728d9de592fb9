package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestDeterministicCounts runs each single-client workload twice with one
// seed and requires the engine's work counters to repeat exactly: pages
// scanned, candidates built and kept, views at the end and VMA count. The
// streams are cut short to keep the test quick; the columns keep their
// benchmark sizes.
func TestDeterministicCounts(t *testing.T) {
	for _, name := range []string{"sine_adaptive", "uniform_scan"} {
		t.Run(name, func(t *testing.T) {
			sp, _ := specByName(name)
			ops := sp.streams(7)[0][:120]
			var first counts
			for i := range 2 {
				rd, err := runInproc(sp, 7, ops, false)
				if err != nil {
					t.Fatal(err)
				}
				if rd.failed != 0 || rd.counts.PagesScanned == 0 || rd.counts.CandidatesBuilt == 0 {
					t.Fatalf("round %d: %d failed ops, counts %+v", i, rd.failed, rd.counts)
				}
				if i == 0 {
					first = rd.counts
				} else if rd.counts != first {
					t.Fatalf("counts differ between runs:\n%+v\n%+v", first, rd.counts)
				}
			}
		})
	}
}

// TestOracleCatchesWrongAnswer checks that the oracle comparison notices a
// single corrupted answer.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	sp, _ := specByName("uniform_scan")
	g, err := sp.generator(3)
	if err != nil {
		t.Fatal(err)
	}
	ops := sp.streams(3)[0][:20]
	want := expectedAnswers(newOracle(g, sp.pages), ops)
	rd, err := runInproc(sp, 3, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	if checkInproc(rd, want); rd.mismatch != 0 {
		t.Fatalf("%d answers disagree with the oracle", rd.mismatch)
	}
	rd.answers[5].Sum++
	if checkInproc(rd, want); rd.mismatch != 1 {
		t.Fatalf("a corrupted answer went unnoticed (mismatch %d)", rd.mismatch)
	}
}

// TestResultLine runs a shrunken served workload in both modes and checks
// the shape of the last output line.
func TestResultLine(t *testing.T) {
	defer func(saved []spec) { specs = saved }(specs)
	specs = append([]spec(nil), specs...)
	for i := range specs {
		if specs[i].name == "serve_mixed" {
			specs[i].pages, specs[i].opsPerClient = 1024, 40
		}
	}
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		start := time.Now()
		if code := run([]string{"--workload", "serve_mixed", "--seed", "2", "--seconds", "1", "--trace", trace}, &out); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		key := "ops_per_s"
		if trace == "1" {
			key = "procmaps.parse_ms_per_flush"
		}
		if v := res.Metrics[key].Value; v <= 0 {
			t.Fatalf("trace %s: %s = %v", trace, key, v)
		}
		t.Logf("trace %s: %d metrics in %v", trace, len(res.Metrics), time.Since(start))
	}
}

func TestParseTrace(t *testing.T) {
	text := "http query  3ms  shards=2\n  shard0  2ms\n    pin  500µs\n    scan  1.5ms  pages_scanned=9\n  shard1  1ms\n    pin  1ms\n"
	root, err := parseTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	if root.name != "http query" || root.dur != 3*time.Millisecond || len(root.children) != 2 ||
		len(root.children[0].children) != 2 || root.children[1].children[0].dur != time.Millisecond {
		t.Fatalf("parsed %+v", root)
	}
	l := newLayers()
	if err := l.addServed(4*time.Millisecond, 3500*time.Microsecond, text); err != nil {
		t.Fatal(err)
	}
	if l.gather != time.Millisecond || l.skew != 2.0/1.5 || l.phase["pin"] != 1500*time.Microsecond {
		t.Fatalf("layers %+v", l)
	}
	if _, err := parseTrace("  orphan  1ms\n"); err == nil {
		t.Fatal("accepted a trace without a root")
	}
}
