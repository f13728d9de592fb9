package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/vmsim"
)

func newTestColumn(t *testing.T, pages int) *Column {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col", pages)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPageCodec(t *testing.T) {
	page := make([]byte, PageSize)
	SetPageID(page, 0xDEADBEEF)
	if PageID(page) != 0xDEADBEEF {
		t.Fatal("pageID round-trip failed")
	}
	SetValueAt(page, 0, 1)
	SetValueAt(page, ValuesPerPage-1, ^uint64(0))
	if ValueAt(page, 0) != 1 || ValueAt(page, ValuesPerPage-1) != ^uint64(0) {
		t.Fatal("value round-trip failed")
	}
	// Header must be untouched by value writes.
	if PageID(page) != 0xDEADBEEF {
		t.Fatal("value write clobbered header")
	}
}

func TestValuesPerPageConstant(t *testing.T) {
	if ValuesPerPage != 509 {
		t.Fatalf("ValuesPerPage = %d, want 509 (4 KiB page, 24 B header, 8 B values)", ValuesPerPage)
	}
}

func TestZoneCodec(t *testing.T) {
	page := make([]byte, PageSize)
	SetPageID(page, 42)
	SetZone(page, 100, 900)
	min, max := Zone(page)
	if min != 100 || max != 900 {
		t.Fatalf("Zone = (%d,%d)", min, max)
	}
	if PageID(page) != 42 {
		t.Fatal("SetZone clobbered pageID")
	}
	SetValueAt(page, 0, 1)
	if min, max := Zone(page); min != 100 || max != 900 {
		t.Fatalf("value write clobbered zone: (%d,%d)", min, max)
	}
}

func TestFillStampsExactZones(t *testing.T) {
	c := newTestColumn(t, 16)
	if err := c.Fill(dist.NewUniform(3, 10, 1000)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		pg, _ := c.PageBytes(p)
		zMin, zMax := Zone(pg)
		all := ScanFilter(pg, 0, math.MaxUint64)
		if zMin != all.Min || zMax != all.Max {
			t.Fatalf("page %d zone (%d,%d) != actual (%d,%d)", p, zMin, zMax, all.Min, all.Max)
		}
	}
}

func TestSetValueEnlargesZone(t *testing.T) {
	c := newTestColumn(t, 2)
	if err := c.Fill(dist.NewUniform(3, 500, 600)); err != nil {
		t.Fatal(err)
	}
	pg, _ := c.PageBytes(0)
	if _, err := c.SetValue(3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetValue(4, 9999); err != nil {
		t.Fatal(err)
	}
	zMin, zMax := Zone(pg)
	if zMin != 10 || zMax != 9999 {
		t.Fatalf("zone after updates (%d,%d), want (10,9999)", zMin, zMax)
	}
	// Zones are conservative: overwriting 10 does not shrink the zone.
	if _, err := c.SetValue(3, 550); err != nil {
		t.Fatal(err)
	}
	if zMin, _ := Zone(pg); zMin != 10 {
		t.Fatal("zone shrank on overwrite")
	}
}

func TestNewColumnStampsPageIDs(t *testing.T) {
	c := newTestColumn(t, 16)
	for p := 0; p < 16; p++ {
		pg, err := c.PageBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		if PageID(pg) != uint64(p) {
			t.Fatalf("page %d has pageID %d", p, PageID(pg))
		}
	}
	if c.NumPages() != 16 || c.Rows() != 16*ValuesPerPage {
		t.Fatalf("NumPages=%d Rows=%d", c.NumPages(), c.Rows())
	}
}

func TestNewColumnRejectsBadSize(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	if _, err := NewColumn(k, as, "c", 0); err == nil {
		t.Fatal("zero-page column accepted")
	}
	if _, err := NewColumn(k, as, "c", -3); err == nil {
		t.Fatal("negative-page column accepted")
	}
}

func TestValueSetValue(t *testing.T) {
	c := newTestColumn(t, 4)
	row := 2*ValuesPerPage + 17
	old, err := c.SetValue(row, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if old != 0 {
		t.Fatalf("old = %d, want 0 (fresh column)", old)
	}
	v, err := c.Value(row)
	if err != nil || v != 12345 {
		t.Fatalf("Value = %d, %v", v, err)
	}
	old, err = c.SetValue(row, 678)
	if err != nil || old != 12345 {
		t.Fatalf("second SetValue old = %d, %v", old, err)
	}
	if _, err := c.Value(-1); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := c.Value(c.Rows()); err == nil {
		t.Fatal("row past end accepted")
	}
}

func TestRowLocation(t *testing.T) {
	c := newTestColumn(t, 4)
	p, s, err := c.RowLocation(ValuesPerPage + 5)
	if err != nil || p != 1 || s != 5 {
		t.Fatalf("RowLocation = (%d,%d,%v)", p, s, err)
	}
}

func TestScanFilter(t *testing.T) {
	page := make([]byte, PageSize)
	SetPageID(page, 1)
	// Slots: 0..510 get value 2*i.
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(2*i))
	}
	s := ScanFilter(page, 100, 200)
	// Qualifying: even numbers 100..200 inclusive -> 51 values.
	if s.Count != 51 {
		t.Fatalf("Count = %d, want 51", s.Count)
	}
	wantSum := uint64(0)
	for v := 100; v <= 200; v += 2 {
		wantSum += uint64(v)
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Min != 100 || s.Max != 200 {
		t.Fatalf("Min/Max = %d/%d, want 100/200", s.Min, s.Max)
	}
	if !s.HasBelow || s.MaxBelow != 98 {
		t.Fatalf("MaxBelow = %d,%v, want 98,true", s.MaxBelow, s.HasBelow)
	}
	if !s.HasAbove || s.MinAbove != 202 {
		t.Fatalf("MinAbove = %d,%v, want 202,true", s.MinAbove, s.HasAbove)
	}
}

func TestScanFilterAllQualify(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, 50)
	}
	s := ScanFilter(page, 0, 100)
	if s.Count != ValuesPerPage || s.Min != 50 || s.Max != 50 || s.HasBelow || s.HasAbove {
		t.Fatalf("got %+v", s)
	}
}

func TestScanFilterNoneQualify(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(1000+i))
	}
	s := ScanFilter(page, 0, 10)
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.HasBelow || !s.HasAbove || s.MinAbove != 1000 {
		t.Fatalf("got %+v", s)
	}
}

// TestScanFilterPasses drives every pass ScanFilter can pick — a page
// all below, all above or all inside the range (plain pass alone), one
// that straddles within the probe, and ones that straddle only past it —
// and checks each against the naive scan.
func TestScanFilterPasses(t *testing.T) {
	const lo, hi = 100, 200
	late := func(first, rest uint64) func(i int) uint64 {
		return func(i int) uint64 {
			if i < probeValues+5 {
				return first
			}
			return rest
		}
	}
	for name, val := range map[string]func(i int) uint64{
		"all below":            func(i int) uint64 { return uint64(i % lo) },
		"all above":            func(i int) uint64 { return hi + 1 + uint64(i) },
		"all inside":           func(i int) uint64 { return lo + uint64(i%(hi-lo+1)) },
		"straddles in probe":   func(i int) uint64 { return uint64(i*7) % 300 },
		"below then inside":    late(lo-1, lo),
		"inside then above":    late(hi, hi+1),
		"below then above":     late(0, hi+7),
		"above then below":     late(hi+1, lo-1),
		"inside then all over": late(lo, 0),
	} {
		page := make([]byte, PageSize)
		for i := range ValuesPerPage {
			SetValueAt(page, i, val(i))
		}
		if got, want := ScanFilter(page, lo, hi), naiveScanFilter(page, lo, hi); got != want {
			t.Errorf("%s: ScanFilter = %+v, naive = %+v", name, got, want)
		}
	}
}

// TestScanFilterFullRangeMinMax: over the whole domain every slot
// qualifies, so Min/Max are the page's extremes — what zone maps hold.
func TestScanFilterFullRangeMinMax(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(100+i))
	}
	SetValueAt(page, 7, 3)
	SetValueAt(page, 8, 999999)
	s := ScanFilter(page, 0, math.MaxUint64)
	if s.Count != ValuesPerPage || s.Min != 3 || s.Max != 999999 {
		t.Fatalf("full-range scan = %+v, want Min 3 Max 999999", s)
	}
}

func TestCollectMatches(t *testing.T) {
	page := make([]byte, PageSize)
	for i := 0; i < ValuesPerPage; i++ {
		SetValueAt(page, i, uint64(i))
	}
	var slots []int
	CollectMatches(page, 10, 12, func(slot int, v uint64) {
		slots = append(slots, slot)
		if v != uint64(slot) {
			t.Fatalf("slot %d carries %d", slot, v)
		}
	})
	if len(slots) != 3 || slots[0] != 10 || slots[2] != 12 {
		t.Fatalf("slots = %v", slots)
	}
}

func TestFillAndFullScan(t *testing.T) {
	c := newTestColumn(t, 64)
	g := dist.NewUniform(7, 0, 1000)
	if err := c.Fill(g); err != nil {
		t.Fatal(err)
	}
	// Reference: regenerate and filter in plain Go.
	lo, hi := uint64(100), uint64(300)
	buf := make([]uint64, ValuesPerPage)
	wantCount, wantSum := 0, uint64(0)
	for p := 0; p < 64; p++ {
		g.FillPage(p, buf)
		for _, v := range buf {
			if v >= lo && v <= hi {
				wantCount++
				wantSum += v
			}
		}
	}
	count, sum, err := c.FullScan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if count != wantCount || sum != wantSum {
		t.Fatalf("FullScan = (%d,%d), want (%d,%d)", count, sum, wantCount, wantSum)
	}
}

func TestFillPreservesPageIDs(t *testing.T) {
	c := newTestColumn(t, 8)
	if err := c.Fill(dist.NewUniform(1, 0, 100)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		pg, _ := c.PageBytes(p)
		if PageID(pg) != uint64(p) {
			t.Fatalf("page %d lost its header after Fill", p)
		}
	}
}

func TestWritesVisibleThroughFile(t *testing.T) {
	c := newTestColumn(t, 2)
	if _, err := c.SetValue(0, 77); err != nil {
		t.Fatal(err)
	}
	// Read the same slot via the file handle (bypassing the view).
	raw, err := c.File().PageData(0)
	if err != nil {
		t.Fatal(err)
	}
	if ValueAt(raw, 0) != 77 {
		t.Fatal("write through full view not visible through file")
	}
}

func TestClose(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if k.FramesInUse() != 0 {
		t.Fatalf("FramesInUse = %d after Close", k.FramesInUse())
	}
	if as.VMACount() != 0 {
		t.Fatalf("VMACount = %d after Close", as.VMACount())
	}
}

// naiveScanFilter is the branchy reference the kernel must agree with:
// one comparison chain per value, no masks to overflow.
func naiveScanFilter(page []byte, lo, hi uint64) PageScan {
	var s PageScan
	for i := 0; i < ValuesPerPage; i++ {
		v := ValueAt(page, i)
		switch {
		case v < lo:
			if !s.HasBelow || v > s.MaxBelow {
				s.MaxBelow, s.HasBelow = v, true
			}
		case v > hi:
			if !s.HasAbove || v < s.MinAbove {
				s.MinAbove, s.HasAbove = v, true
			}
		default:
			if s.Count == 0 || v < s.Min {
				s.Min = v
			}
			if s.Count == 0 || v > s.Max {
				s.Max = v
			}
			s.Count++
			s.Sum += v
		}
	}
	return s
}

// Property: ScanFilter's aggregates and boundary values match a naive scan.
func TestQuickScanFilterMatchesNaive(t *testing.T) {
	f := func(vals []uint64, loRaw, hiRaw uint64) bool {
		lo, hi := loRaw, hiRaw
		if lo > hi {
			lo, hi = hi, lo
		}
		page := make([]byte, PageSize)
		for i := 0; i < ValuesPerPage; i++ {
			var v uint64
			if len(vals) > 0 {
				v = vals[i%len(vals)]
			}
			SetValueAt(page, i, v)
		}
		return ScanFilter(page, lo, hi) == naiveScanFilter(page, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fuzzPage lays data out over the page's value slots, repeating it until
// every slot is written; an input shorter than one value leaves the slots
// zero.
func fuzzPage(data []byte) []byte {
	page := make([]byte, PageSize)
	if len(data) == 0 {
		return page
	}
	for off := HeaderSize; off < PageSize; off += len(data) {
		copy(page[off:], data)
	}
	return page
}

// valueBytes encodes values as the little-endian slot bytes fuzzPage
// repeats over a page.
func valueBytes(vs ...uint64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// FuzzScanFilter compares the branch-free kernel with naiveScanFilter on
// arbitrary pages and ranges, lo > hi included. The seeds are the cases
// where mask arithmetic overflows: the domain's ends as bounds and as
// values, lo == hi, values one step outside each bound, pages on which
// every slot or no slot qualifies, and a page that straddles a bound only
// past the probe.
func FuzzScanFilter(f *testing.F) {
	const maxU = math.MaxUint64
	f.Add(valueBytes(0, 1, maxU-1, maxU), uint64(0), uint64(maxU))
	f.Add(valueBytes(0, maxU, 7), uint64(7), uint64(7))
	f.Add(valueBytes(0, maxU), uint64(0), uint64(0))
	f.Add(valueBytes(0, maxU), uint64(maxU), uint64(maxU))
	f.Add(valueBytes(99, 100, 200, 201), uint64(100), uint64(200))
	f.Add(valueBytes(0, 1, maxU-1, maxU), uint64(1), uint64(maxU-1))
	f.Add(valueBytes(50), uint64(0), uint64(100))        // every slot qualifies
	f.Add(valueBytes(1000, 2000), uint64(0), uint64(10)) // no slot qualifies
	f.Add(valueBytes(5, 10, 15), uint64(12), uint64(8))  // lo > hi
	// Uniform for the first probeValues slots, straddling after them.
	f.Add(valueBytes(append(slices.Repeat([]uint64{99}, probeValues+3), 100)...), uint64(100), uint64(200))
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint64) {
		page := fuzzPage(data)
		if got, want := ScanFilter(page, lo, hi), naiveScanFilter(page, lo, hi); got != want {
			t.Fatalf("ScanFilter(%d, %d) = %+v, naive = %+v", lo, hi, got, want)
		}
	})
}

// ladderPages is how many distinct pages each kernel benchmark rung
// scans: 4 MiB of page images, more than the L2 holds and more branch
// history than a predictor learns, unlike a benchmark that repeats one
// cache-hot page.
const ladderPages = 1024

var ladderSink PageScan

// benchLadder runs scan as a ladder of sub-benchmarks over ladderPages
// distinct pages of {uniform, sine, zipf} data × selectivity {0.1%, 1%,
// 10%}, reporting ns/page. A rung's range is cut at the middle quantiles
// of the pages' values, so its selectivity is the share of values that
// qualify whatever the distribution.
func benchLadder(b *testing.B, scan func(page []byte, lo, hi uint64) PageScan) {
	for _, name := range []string{"uniform", "sine", "zipf"} {
		g, err := dist.ByName(name, 1, 0, 100_000_000, ladderPages)
		if err != nil {
			b.Fatal(err)
		}
		k := vmsim.NewKernel(0)
		c, err := NewColumn(k, k.NewAddressSpace(), name, ladderPages)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Fill(g); err != nil {
			b.Fatal(err)
		}
		pages := make([][]byte, ladderPages)
		vals := make([]uint64, 0, ladderPages*ValuesPerPage)
		for p := range pages {
			if pages[p], err = c.PageBytes(p); err != nil {
				b.Fatal(err)
			}
			for i := range ValuesPerPage {
				vals = append(vals, ValueAt(pages[p], i))
			}
		}
		slices.Sort(vals)
		for _, sel := range []float64{0.001, 0.01, 0.1} {
			half := int(sel * float64(len(vals)) / 2)
			lo, hi := vals[len(vals)/2-half], vals[len(vals)/2+half]
			b.Run(fmt.Sprintf("%s/sel=%g%%", name, sel*100), func(b *testing.B) {
				b.SetBytes(ladderPages * PageSize)
				for b.Loop() {
					for _, pg := range pages {
						ladderSink = scan(pg, lo, hi)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ladderPages), "ns/page")
			})
		}
	}
}

// BenchmarkScanFilterLadder times the page kernel on distinct pages of
// realistic data (see benchLadder).
func BenchmarkScanFilterLadder(b *testing.B) { benchLadder(b, ScanFilter) }

func BenchmarkFullScan(b *testing.B) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col", 1024)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Fill(dist.NewUniform(1, 0, 100_000_000)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(1024 * PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.FullScan(0, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
