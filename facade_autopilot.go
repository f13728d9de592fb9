package asv

import "github.com/asv-db/asv/internal/autopilot"

// AutopilotConfig tunes a column's background maintenance subsystem; see
// WithAutopilot. The zero value of every field selects the documented
// default (negative values disable optional duties).
type AutopilotConfig = autopilot.Config

// AutopilotMetrics is a snapshot of an autopilot's cumulative counters.
type AutopilotMetrics = autopilot.Metrics

// FlushInfo describes one coalesced autopilot flush (OnFlush hook).
type FlushInfo = autopilot.FlushInfo

// MaintainReport describes one autopilot maintenance tick (OnMaintain
// hook).
type MaintainReport = autopilot.MaintainReport

// WithAutopilot enables the background maintenance subsystem on a column
// configuration: Update becomes fire-and-forget (applied and aligned
// within ap.MaxFlushLatency as part of a coalesced group commit), scan
// and alignment fan-out is chosen per operation by an EWMA cost model,
// and a maintenance ticker evicts cold views, rebuilds fragmented ones
// and pre-warms hot soft-TLBs. Call with no AutopilotConfig for the
// defaults (5ms latency bound, 256-write coalescing, 50ms maintenance):
//
//	col, _ := db.CreateColumn("hot", pages, asv.WithAutopilot(asv.DefaultConfig()))
//	col.Update(row, v)        // returns immediately
//	col.Sync()                // read-your-writes barrier when needed
func WithAutopilot(cfg Config, ap ...AutopilotConfig) Config {
	a := AutopilotConfig{}
	if len(ap) > 0 {
		a = ap[0]
	}
	cfg.Autopilot = &a
	return cfg
}

// Sync is the column's read-your-writes barrier: it applies every write
// accepted so far (draining the autopilot intake, when one runs) and
// realigns all partial views. Without an autopilot it is FlushUpdates.
func (c *Column) Sync() error {
	_, err := c.eng.Sync()
	return err
}

// QueuedUpdates returns the number of fire-and-forget writes accepted by
// Update but not yet applied (always 0 without an autopilot).
func (c *Column) QueuedUpdates() int { return c.eng.QueuedUpdates() }

// AutopilotMetrics returns the column's autopilot counters; ok is false
// when the column runs without an autopilot.
func (c *Column) AutopilotMetrics() (AutopilotMetrics, bool) {
	p := c.eng.Autopilot()
	if p == nil {
		return AutopilotMetrics{}, false
	}
	return p.Metrics(), true
}
