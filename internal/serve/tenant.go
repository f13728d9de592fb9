package serve

import (
	"fmt"
	"sort"
	"sync"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/obs"
)

// Limits are the request-scoped guard rails of one server: a tenant can
// never make one request arbitrarily expensive for everyone else. The
// zero value of any field selects its default.
type Limits struct {
	// MaxBodyBytes caps a request body (http.MaxBytesReader; overflow is
	// 413). Default 1 MiB.
	MaxBodyBytes int64
	// MaxRows caps the row IDs materialized into one query response;
	// larger row sets are truncated and flagged. Default 4096.
	MaxRows int
	// MaxBatch caps the writes of one update request. Default 4096.
	MaxBatch int
	// MaxQueued is the per-tenant update backpressure threshold: an
	// update arriving while the tenant already has this many accepted
	// but unapplied writes is refused with 429. Default 4096.
	MaxQueued int
	// MaxPages caps the pages of one created column. Default 1 Mi pages
	// (the paper's full column size).
	MaxPages int
}

// DefaultLimits returns the documented defaults.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes: 1 << 20,
		MaxRows:      4096,
		MaxBatch:     4096,
		MaxQueued:    4096,
		MaxPages:     1 << 20,
	}
}

// withDefaults fills zero fields.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = d.MaxBodyBytes
	}
	if l.MaxRows <= 0 {
		l.MaxRows = d.MaxRows
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = d.MaxBatch
	}
	if l.MaxQueued <= 0 {
		l.MaxQueued = d.MaxQueued
	}
	if l.MaxPages <= 0 {
		l.MaxPages = d.MaxPages
	}
	return l
}

// Catalog is the server's tenant index: named tenants, each owning an
// independent asv.DB (its own simulated kernel and address space, so
// tenants never share frames or map counts), created lazily on first
// reference and independently closable. Safe for concurrent use.
type Catalog struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	// closeTenantHook, when set (tests only), is called instead of
	// t.Close by Close/CloseTenant — the fault-injection seam behind
	// TestCatalogCloseAllTenantsOnError.
	closeTenantHook func(t *Tenant) error
}

// NewCatalog returns an empty tenant catalog.
func NewCatalog() *Catalog {
	return &Catalog{tenants: make(map[string]*Tenant)}
}

// validName accepts the identifier shape tenant and column names share:
// 1-64 characters of [a-zA-Z0-9_-]. Names feed metric keys and shard
// column names, so the grammar stays deliberately narrow.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Tenant returns the named tenant, creating it (with a fresh DB) on
// first reference.
func (c *Catalog) Tenant(name string) (*Tenant, error) {
	if !validName(name) {
		return nil, fmt.Errorf("serve: invalid tenant name %q (want 1-64 chars of [a-zA-Z0-9_-])", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("serve: catalog is closed")
	}
	if t, ok := c.tenants[name]; ok {
		return t, nil
	}
	db, err := asv.Open(asv.Options{})
	if err != nil {
		return nil, err
	}
	t := &Tenant{name: name, db: db, cols: make(map[string]*ShardedColumn), snaps: make(map[uint64]*snapEntry)}
	c.tenants[name] = t
	return t, nil
}

// Lookup returns the named tenant without creating it.
func (c *Catalog) Lookup(name string) (*Tenant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tenants[name]
	return t, ok
}

// Names lists the current tenants, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tenants))
	for n := range c.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CloseTenant closes and removes one tenant; closing an unknown tenant
// is an error (the caller asked for something that is not there).
func (c *Catalog) CloseTenant(name string) error {
	c.mu.Lock()
	t, ok := c.tenants[name]
	delete(c.tenants, name)
	hook := c.closeTenantHook
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown tenant %q", name)
	}
	if hook != nil {
		return hook(t)
	}
	return t.Close()
}

// Close closes every tenant. Like asv.DB.Close it returns the first
// error but keeps closing the rest — one failing tenant must never leak
// the other tenants' kernels. The catalog refuses new tenants afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	c.closed = true
	tenants := make([]*Tenant, 0, len(c.tenants))
	for name, t := range c.tenants {
		tenants = append(tenants, t)
		delete(c.tenants, name)
	}
	hook := c.closeTenantHook
	c.mu.Unlock()

	// Deterministic close order keeps error attribution stable.
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	var firstErr error
	for _, t := range tenants {
		var err error
		if hook != nil {
			err = hook(t)
		} else {
			err = t.Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// snapEntry is one HTTP-created snapshot handle, remembered until the
// client deletes it or the owning column/tenant closes.
type snapEntry struct {
	col  string
	snap *ShardSnapshot
}

// Tenant is one tenant's namespace: a private DB plus its sharded
// columns and open snapshot handles. Safe for concurrent use.
type Tenant struct {
	name string
	db   *asv.DB

	mu     sync.Mutex
	cols   map[string]*ShardedColumn
	snaps  map[uint64]*snapEntry
	nextID uint64
	closed bool
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// CreateColumn materializes a sharded logical column in the tenant's DB.
func (t *Tenant) CreateColumn(name string, pages, shards int, part Partitioning, cfg asv.Config) (*ShardedColumn, error) {
	if !validName(name) {
		return nil, fmt.Errorf("serve: invalid column name %q (want 1-64 chars of [a-zA-Z0-9_-])", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("serve: tenant %q is closed", t.name)
	}
	if _, dup := t.cols[name]; dup {
		return nil, fmt.Errorf("serve: column %q already exists", name)
	}
	col, err := NewShardedColumn(t.db, name, pages, shards, part, cfg)
	if err != nil {
		return nil, err
	}
	t.cols[name] = col
	return col, nil
}

// Column returns a previously created column.
func (t *Tenant) Column(name string) (*ShardedColumn, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	col, ok := t.cols[name]
	return col, ok
}

// Columns lists the tenant's columns, sorted.
func (t *Tenant) Columns() []*ShardedColumn {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*ShardedColumn, 0, len(t.cols))
	for _, col := range t.cols {
		out = append(out, col)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// QueuedUpdates sums the accepted-but-unapplied writes across the
// tenant's columns — the per-tenant backpressure signal.
func (t *Tenant) QueuedUpdates() int {
	total := 0
	for _, col := range t.Columns() {
		total += col.QueuedUpdates()
	}
	return total
}

// AddSnapshot registers an open snapshot handle and returns its ID.
func (t *Tenant) AddSnapshot(col string, s *ShardSnapshot) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, fmt.Errorf("serve: tenant %q is closed", t.name)
	}
	t.nextID++
	t.snaps[t.nextID] = &snapEntry{col: col, snap: s}
	return t.nextID, nil
}

// SnapshotHandle returns the open snapshot with the given ID, scoped to
// the named column.
func (t *Tenant) SnapshotHandle(col string, id uint64) (*ShardSnapshot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.snaps[id]
	if !ok || e.col != col {
		return nil, false
	}
	return e.snap, true
}

// CloseSnapshot releases one snapshot handle.
func (t *Tenant) CloseSnapshot(col string, id uint64) error {
	t.mu.Lock()
	e, ok := t.snaps[id]
	if ok && e.col == col {
		delete(t.snaps, id)
	}
	t.mu.Unlock()
	if !ok || e.col != col {
		return fmt.Errorf("serve: unknown snapshot %d on column %q", id, col)
	}
	return e.snap.Close()
}

// CloseColumn closes and removes one column, releasing its open
// snapshots first — a column's Close blocks until every pin is released,
// so the snapshots must go before the shards.
func (t *Tenant) CloseColumn(name string) error {
	t.mu.Lock()
	col, ok := t.cols[name]
	delete(t.cols, name)
	var snaps []*ShardSnapshot
	for id, e := range t.snaps {
		if e.col == name {
			snaps = append(snaps, e.snap)
			delete(t.snaps, id)
		}
	}
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown column %q", name)
	}
	var firstErr error
	for _, s := range snaps {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := col.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Telemetry merges the instrument snapshots of every column of the
// tenant (see mergeTelemetry).
func (t *Tenant) Telemetry() obs.Snapshot {
	out := obs.NewSnapshot()
	for _, col := range t.Columns() {
		out = mergeTelemetry(out, col.Telemetry())
	}
	return out
}

// Close releases the tenant: open snapshots first (column Close blocks
// on live pins), then every column, then the DB — returning the first
// error but always closing everything, the same
// first-error-keep-closing contract as asv.DB.Close.
func (t *Tenant) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	snaps := make([]*snapEntry, 0, len(t.snaps))
	for id, e := range t.snaps {
		snaps = append(snaps, e)
		delete(t.snaps, id)
	}
	cols := make([]*ShardedColumn, 0, len(t.cols))
	for name, col := range t.cols {
		cols = append(cols, col)
		delete(t.cols, name)
	}
	t.mu.Unlock()

	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	var firstErr error
	for _, e := range snaps {
		if err := e.snap.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, col := range cols {
		if err := col.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := t.db.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
