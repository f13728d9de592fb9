package main

import (
	"math/rand/v2"

	asv "github.com/asv-db/asv"
)

// Value domain and query shape shared by every workload: values lie in
// [0, domainHi] and every range query selects a fixed 1% of the domain at
// a uniform position.
const (
	domainHi   = 1_000_000_000
	queryWidth = domainHi / 100
	writeBatch = 64
	vpp        = asv.ValuesPerPage
)

type opKind int

const (
	opCount opKind = iota
	opAgg
	opRows
	opWrite
	numKinds
)

var kindName = [numKinds]string{"count", "agg", "rows", "write"}

// op is one client request: a range query of some kind, or a batch of row
// writes.
type op struct {
	kind   opKind
	lo, hi uint64
	writes []asv.RowWrite
}

// spec is one workload. A round creates a fresh column, fills it and runs
// every client's fixed op stream once, closed loop; a run repeats rounds
// until its time is spent, so the op count (not the duration) defines
// what a round measures.
type spec struct {
	name         string
	dist         string // generator name, see asv.GeneratorNames
	pages        int
	shards       int // > 0: served over loopback HTTP by a serve.Server with this many range shards
	clients      int
	opsPerClient int           // per round
	mix          [numKinds]int // percent of ops by kind
}

var (
	readMix  = [numKinds]int{opCount: 60, opAgg: 30, opRows: 10}
	mixedMix = [numKinds]int{opCount: 50, opAgg: 30, opWrite: 20}
)

var specs = []spec{
	{name: "sine_adaptive", dist: "sine", pages: 32768, clients: 1, opsPerClient: 500, mix: readMix},
	{name: "uniform_scan", dist: "uniform", pages: 4096, clients: 1, opsPerClient: 300, mix: readMix},
	{name: "serve_mixed", dist: "sine", pages: 8192, shards: 2, clients: 2, opsPerClient: 200, mix: mixedMix},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// generator returns the workload's column contents for a seed.
func (sp spec) generator(seed uint64) (asv.Generator, error) {
	return asv.GeneratorByName(sp.dist, seed, 0, domainHi, sp.pages)
}

// streams derives every client's op sequence from the seed. Writes take a
// fixed slot in every run of 100/mix[opWrite] ops, staggered across
// clients; query kinds are drawn by the rest of the mix. Fixed write slots
// keep the share of reads that find writes to flush the same for every
// seed: with random slots that share wanders around one half, and the
// read p50 jumps between the flushing and the non-flushing mode. Writes
// are 64-row batches to rows only the writing client owns
// (row % clients == client), so the final column state does not depend on
// how the clients interleave.
func (sp spec) streams(seed uint64) [][]op {
	rows := sp.pages * vpp
	period := 0
	if sp.mix[opWrite] > 0 {
		period = 100 / sp.mix[opWrite]
	}
	out := make([][]op, sp.clients)
	for c := range out {
		r := rand.New(rand.NewPCG(seed, uint64(c)+1))
		ops := make([]op, sp.opsPerClient)
		for i := range ops {
			lo := r.Uint64N(domainHi - queryWidth + 2)
			o := op{lo: lo, hi: lo + queryWidth - 1}
			if period > 0 && (i+c*period/sp.clients)%period == period-1 {
				o.kind = opWrite
				o.writes = ownedWrites(r, rows, c, sp.clients)
			} else {
				for p := r.IntN(100 - sp.mix[opWrite]); p >= sp.mix[o.kind]; o.kind++ {
					p -= sp.mix[o.kind]
				}
			}
			ops[i] = o
		}
		out[c] = ops
	}
	return out
}

// ownedWrites draws writeBatch distinct rows owned by client c, each with
// a uniform value.
func ownedWrites(r *rand.Rand, rows, c, clients int) []asv.RowWrite {
	seen := make(map[int]bool, writeBatch)
	ws := make([]asv.RowWrite, 0, writeBatch)
	for len(ws) < writeBatch {
		row := r.IntN(rows/clients)*clients + c
		if seen[row] {
			continue
		}
		seen[row] = true
		ws = append(ws, asv.RowWrite{Row: row, Value: r.Uint64N(domainHi + 1)})
	}
	return ws
}

// answer is the checkable part of a query result. Fields a query kind does
// not produce stay zero, so answers compare with ==.
type answer struct {
	Count    int
	Sum      uint64
	Min, Max uint64
	RowHash  uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func mixRow(h uint64, row int) uint64 { return (h ^ uint64(row)) * fnvPrime }

// engineAnswer extracts the checkable answer of a QueryOpt call.
func engineAnswer(kind opKind, ans asv.QueryAnswer) answer {
	a := answer{Count: ans.Count, Sum: ans.Sum}
	switch kind {
	case opAgg:
		if ans.Agg == nil {
			return answer{Count: -1}
		}
		a = answer{Count: ans.Agg.Count, Sum: ans.Agg.Sum}
		if a.Count > 0 {
			a.Min, a.Max = ans.Agg.Min, ans.Agg.Max
		}
	case opRows:
		if ans.Rows == nil || ans.Rows.Len() != ans.Count {
			return answer{Count: -1}
		}
		a.RowHash = fnvOffset
		ans.Rows.ForEach(func(row int) bool {
			a.RowHash = mixRow(a.RowHash, row)
			return true
		})
	}
	return a
}

// oracle is the reference column: a plain []uint64 in row order, plus
// per-page value bounds that only let it skip pages no value of which can
// qualify. Bounds only widen on writes, like the engine's zones.
type oracle struct {
	vals     []uint64
	zlo, zhi []uint64
}

func newOracle(g asv.Generator, pages int) *oracle {
	o := &oracle{vals: make([]uint64, pages*vpp), zlo: make([]uint64, pages), zhi: make([]uint64, pages)}
	for p := 0; p < pages; p++ {
		page := o.vals[p*vpp : (p+1)*vpp]
		g.FillPage(p, page)
		o.zlo[p], o.zhi[p] = ^uint64(0), 0
		for _, v := range page {
			o.zlo[p], o.zhi[p] = min(o.zlo[p], v), max(o.zhi[p], v)
		}
	}
	return o
}

func (o *oracle) clone() *oracle {
	return &oracle{
		vals: append([]uint64(nil), o.vals...),
		zlo:  append([]uint64(nil), o.zlo...),
		zhi:  append([]uint64(nil), o.zhi...),
	}
}

func (o *oracle) set(row int, v uint64) {
	o.vals[row] = v
	p := row / vpp
	o.zlo[p], o.zhi[p] = min(o.zlo[p], v), max(o.zhi[p], v)
}

// answer computes the expected result of a query of the given kind.
func (o *oracle) answer(kind opKind, lo, hi uint64) answer {
	a := answer{Min: ^uint64(0)}
	h := uint64(fnvOffset)
	for p := range o.zlo {
		if o.zhi[p] < lo || o.zlo[p] > hi {
			continue
		}
		base := p * vpp
		for i, v := range o.vals[base : base+vpp] {
			if v < lo || v > hi {
				continue
			}
			a.Count++
			a.Sum += v
			a.Min, a.Max = min(a.Min, v), max(a.Max, v)
			h = mixRow(h, base+i)
		}
	}
	switch {
	case kind == opRows:
		a.Min, a.Max, a.RowHash = 0, 0, h
	case kind != opAgg || a.Count == 0:
		a.Min, a.Max = 0, 0
	}
	return a
}
