package asv

import (
	"github.com/asv-db/asv/internal/core"
	"github.com/asv-db/asv/internal/obs"
)

// This file is the column's observability surface: the unified telemetry
// snapshot (metrics registry), the per-query trace types behind the
// Trace query option, and the engine event journal. All three are
// zero-dependency (internal/obs) and cheap enough to leave on in
// production: instruments are lock-free atomics, tracing is opt-in per
// query, and the journal is disabled unless Config.JournalEvents is set.

// Telemetry is a point-in-time snapshot of a column's instruments:
// counters, gauges and log₂-bucket histograms, keyed by stable names
// (engine_*, autopilot_*, tier_*, map_*, room_*, ...). Snapshots merge
// (Merge) and encode to stable JSON (JSON), so they diff cleanly across
// runs and embed in benchmark artifacts.
type Telemetry = obs.Snapshot

// HistogramSnapshot is one histogram's frozen state inside a Telemetry
// snapshot; Quantile and Mean summarize it.
type HistogramSnapshot = obs.HistogramSnapshot

// QueryTrace is one traced query's span tree (see Trace).
type QueryTrace = obs.Trace

// TraceSpan is one timed region of a traced query.
type TraceSpan = obs.Span

// EngineEvent is one entry drained from the column's event journal.
type EngineEvent = obs.Event

// Telemetry snapshots every instrument of the column: the engine's own
// histograms and counters, the autopilot's (when one runs), the tier's
// (when tiering is enabled) and the simulated address space's. Reading
// the snapshot never blocks queries — every instrument is a lock-free
// atomic the hot paths bump unconditionally.
func (c *Column) Telemetry() Telemetry { return c.eng.Telemetry() }

// Events drains the column's event journal: the newest JournalEvents
// engine events (epoch publications/retirements, autopilot duties, tier
// migration batches, view lifecycle transitions) in
// sequence order. Returns nil when Config.JournalEvents left the
// journal disabled.
func (c *Column) Events() []EngineEvent { return c.eng.Journal().Events() }

// Trace attaches a span tree to one QueryOpt call; the finished tree
// comes back on QueryAnswer.Trace:
//
//	ans, _ := col.QueryOpt(lo, hi, asv.Trace())
//	fmt.Print(ans.Trace)   // pin/route/scan/materialize/merge spans
//
// The tree attributes the query's wall time across epoch pinning,
// routing, per-view scans (with pages scanned, TLB-resolved pages and
// lazy-slot faults), tier cold-touch stalls, and candidate
// materialization/merge. Queries without this option pay nothing: the
// untraced path is allocation-identical to a build without tracing.
func Trace() QueryOption {
	return func(o *core.QueryOptions) { o.Trace = obs.NewTrace("query") }
}
