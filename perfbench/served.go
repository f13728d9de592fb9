package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asv-db/asv/internal/serve"
)

// opHeader carries a timed op's index so the handler wrapper can file the
// time it measured under that op.
const opHeader = "X-Perfbench-Op"

// handlerTimer is the benchmark's span around serve.Server.Handler(): it
// times every request carrying opHeader.
type handlerTimer struct {
	next http.Handler
	dur  []atomic.Int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(opHeader))
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if err == nil && id >= 0 && id < len(h.dur) {
		h.dur[id].Store(int64(time.Since(start)))
	}
}

type rowWrite struct {
	Row   int    `json:"row"`
	Value uint64 `json:"value"`
}

type queryReply struct {
	Count        int    `json:"count"`
	Sum          uint64 `json:"sum"`
	PagesScanned int    `json:"pages_scanned"`
	UsedFullView bool   `json:"used_full_view"`
	Aggregate    *struct {
		Count int    `json:"count"`
		Sum   uint64 `json:"sum"`
		Min   uint64 `json:"min"`
		Max   uint64 `json:"max"`
	} `json:"aggregate"`
	Trace string `json:"trace"`
}

type telemetry struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
}

// client is one HTTP client of the column's endpoints.
type client struct {
	hc  *http.Client
	col string // URL of the column
}

// post sends a JSON body and decodes a JSON reply into out (when non-nil).
// id < 0 marks an untimed request.
func (c *client) post(path string, id int, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.col+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(id))
	}
	return c.send(req, out)
}

func (c *client) send(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) telemetry() (telemetry, error) {
	var t telemetry
	req, err := http.NewRequest(http.MethodGet, c.col+"/telemetry", nil)
	if err != nil {
		return t, err
	}
	return t, c.send(req, &t)
}

// query runs one range query; trace asks the server for the span tree.
func (c *client) query(o op, id int, trace bool) (queryReply, error) {
	path := "/query"
	if trace {
		path += "?trace=1"
	}
	var r queryReply
	err := c.post(path, id, map[string]any{"lo": o.lo, "hi": o.hi, "aggregate": o.kind == opAgg}, &r)
	return r, err
}

func (c *client) update(o op, id int) error {
	ws := make([]rowWrite, len(o.writes))
	for i, w := range o.writes {
		ws[i] = rowWrite{Row: w.Row, Value: w.Value}
	}
	return c.post("/update", id, map[string]any{"writes": ws}, nil)
}

// servedOp is one timed op of a traced served round, kept until the
// handler times are final.
type servedOp struct {
	id        int
	roundtrip time.Duration
	trace     string
}

// verifyOps is the fixed aggregate query set checked after a served round:
// 1% ranges at seeded positions plus the whole domain.
func verifyOps(seed uint64) []op {
	r := rand.New(rand.NewPCG(seed, 1<<32))
	out := make([]op, 0, 33)
	for range 32 {
		lo := r.Uint64N(domainHi - queryWidth + 2)
		out = append(out, op{kind: opAgg, lo: lo, hi: lo + queryWidth - 1})
	}
	return append(out, op{kind: opAgg, lo: 0, hi: domainHi})
}

// finalOracle applies every client's writes to a copy of the base oracle.
// Clients own disjoint rows, so the order across clients does not matter.
func finalOracle(base *oracle, streams [][]op) *oracle {
	o := base.clone()
	for _, ops := range streams {
		for _, op := range ops {
			for _, w := range op.writes {
				o.set(w.Row, w.Value)
			}
		}
	}
	return o
}

// server is a running serve.Server on a loopback listener with one tenant
// and one filled column.
type server struct {
	cl    *client
	timer *handlerTimer // traced rounds only
	setup time.Duration
	stop  func() // drains requests, closes the catalog; idempotent
}

// startServer starts an in-process serve.Server on a loopback listener and
// creates the workload's column over HTTP: one tenant, one column split
// into range shards, autopilot off (asvd's default), so writes are
// buffered and flushed before the next read. Setup time covers server
// start, column creation and fill.
func startServer(sp spec, seed uint64, traced bool) (*server, error) {
	t0 := time.Now()
	srv := serve.NewServer(serve.ServerConfig{})
	s := &server{}
	var h http.Handler = srv.Handler()
	if traced {
		s.timer = &handlerTimer{next: h, dur: make([]atomic.Int64, sp.clients*sp.opsPerClient)}
		h = s.timer
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	tr := &http.Transport{MaxIdleConnsPerHost: sp.clients, DisableCompression: true}
	var once sync.Once
	s.stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx) // a drain timeout leaves nothing to undo; the catalog still closes below
			<-served
			tr.CloseIdleConnections()
			_ = srv.Shutdown(ctx) // closes the tenant catalog; its own listener never started
		})
	}
	tenant := "http://" + l.Addr().String() + "/t/bench/columns"
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	s.cl = &client{hc: hc, col: tenant + "/c"}
	create := map[string]any{
		"name": "c", "pages": sp.pages, "shards": sp.shards, "partitioning": "range",
		"fill": map[string]any{"dist": sp.dist, "seed": seed, "lo": 0, "hi": domainHi},
	}
	if err := (&client{hc: hc, col: tenant}).post("", -1, create, nil); err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// runServed runs one round of serve_mixed. Every client runs its stream
// closed loop; after the timed phase the column is synced and the
// verification set is checked against the oracle with every write applied.
func runServed(sp spec, seed uint64, streams [][]op, verify []op, want []answer, traced bool) (*round, error) {
	heap0 := liveHeap()
	s, err := startServer(sp, seed, traced)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	cl := s.cl
	rd := &round{setup: s.setup}
	tel0, err := cl.telemetry()
	if err != nil {
		return nil, err
	}

	// Each client fills its own part; the parts merge after the timed phase.
	parts := make([]round, len(streams))
	traces := make([][]servedOp, len(streams))
	var wg sync.WaitGroup
	malloc0 := mallocs()
	start := time.Now()
	for c, ops := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &parts[c]
			for i, o := range ops {
				id := c*sp.opsPerClient + i
				t := time.Now()
				var reply queryReply
				var err error
				if o.kind == opWrite {
					err = cl.update(o, id)
				} else {
					reply, err = cl.query(o, id, traced)
				}
				d := time.Since(t)
				part.record(o.kind, d, err)
				if err != nil || o.kind == opWrite {
					continue
				}
				part.counts.add(counts{Queries: 1, PagesScanned: uint64(reply.PagesScanned),
					ResultRows: uint64(reply.Count), FullViewQueries: boolInt(reply.UsedFullView)})
				if traced {
					traces[c] = append(traces[c], servedOp{id: id, roundtrip: d, trace: reply.Trace})
				}
			}
		}()
	}
	wg.Wait()
	rd.timed = time.Since(start)
	rd.mallocs = mallocs() - malloc0
	for _, part := range parts {
		rd.ops += part.ops
		rd.attempted += part.attempted
		rd.failed += part.failed
		for k := range part.lat {
			rd.lat[k] = append(rd.lat[k], part.lat[k]...)
		}
		rd.counts.add(part.counts)
	}

	tel, err := cl.telemetry()
	if err != nil {
		return nil, err
	}
	ctr := func(name string) uint64 { return tel.Counters[name] - tel0.Counters[name] }
	kept := ctr("engine_views_created") + ctr("engine_views_replaced")
	rd.counts.CandidatesKept = kept
	rd.counts.CandidatesBuilt = kept + ctr("engine_views_discarded")
	rd.counts.VMACount = tel.Gauges["map_vma_count"]
	// map_* counters are address-space wide and every shard of a tenant
	// shares the space, so the merged endpoint reports them once per shard.
	rd.counts.MmapCalls = ctr("map_mmap_calls") / uint64(sp.shards)

	if err := cl.post("/sync", -1, struct{}{}, nil); err != nil {
		return nil, err
	}
	for i, o := range verify {
		rd.attempted++
		r, err := cl.query(o, -1, false)
		if err != nil || r.Aggregate == nil {
			rd.failed++
			continue
		}
		got := answer{Count: r.Aggregate.Count, Sum: r.Aggregate.Sum}
		if got.Count > 0 {
			got.Min, got.Max = r.Aggregate.Min, r.Aggregate.Max
		}
		if got != want[i] {
			rd.mismatch++
		}
	}
	if h := liveHeap(); h > heap0 {
		rd.heapBytes = h - heap0
	}
	s.stop()
	if traced {
		rd.layers = newLayers()
		rd.layers.publishNanos = ctr("engine_publish_ns")
		for _, ops := range traces {
			for _, so := range ops {
				if err := rd.layers.addServed(so.roundtrip, time.Duration(s.timer.dur[so.id].Load()), so.trace); err != nil {
					return nil, err
				}
			}
		}
	}
	return rd, nil
}

// flushReplay is the in-process replay of serve_mixed's op streams on one
// unsharded asv.Column: ops interleave one per client in turn, writes go
// through UpdateBatch, and the buffered writes are flushed with an explicit
// FlushUpdates before the next query, where the server would flush them.
type flushReplay struct {
	flushes     int
	parse       time.Duration // UpdateReport.ParseDuration: RenderMaps + Parse + BuildBimap
	align       time.Duration // UpdateReport.AlignDuration
	flushTime   time.Duration // benchmark span around FlushUpdates
	updateTime  time.Duration // benchmark span around UpdateBatch
	updateCalls int
}

func replayFlushes(sp spec, seed uint64, streams [][]op) (*flushReplay, error) {
	db, col, _, err := openColumn(sp, seed)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	fr := &flushReplay{}
	pending := false
	for i := range sp.opsPerClient {
		for _, ops := range streams {
			o := ops[i]
			if o.kind == opWrite {
				t := time.Now()
				if err := col.UpdateBatch(o.writes); err != nil {
					return nil, err
				}
				fr.updateTime += time.Since(t)
				fr.updateCalls++
				pending = true
				continue
			}
			if pending {
				t := time.Now()
				rep, err := col.FlushUpdates()
				if err != nil {
					return nil, err
				}
				fr.flushTime += time.Since(t)
				fr.flushes++
				fr.parse += rep.ParseDuration
				fr.align += rep.AlignDuration
				pending = false
			}
			if _, err := col.QueryOpt(o.lo, o.hi, kindOptions[o.kind]...); err != nil {
				return nil, err
			}
		}
	}
	return fr, nil
}
