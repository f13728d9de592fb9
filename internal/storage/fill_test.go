package storage

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/vmsim"
)

// TestFillParallelMatchesSerial: because FillPage is a pure function of
// (seed, page), a parallel fill must produce byte-identical pages —
// values, pageIDs and zones — to a serial fill, for every distribution
// and any worker count.
func TestFillParallelMatchesSerial(t *testing.T) {
	const pages = 257 // odd size: exercises the final partial chunk
	for _, name := range dist.Names() {
		for _, workers := range []int{0, 1, 3, 8, pages * 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				mk := func() dist.Generator {
					g, err := dist.ByName(name, 42, 0, 100_000_000, pages)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				serial := newTestColumn(t, pages)
				if err := serial.Fill(mk()); err != nil {
					t.Fatal(err)
				}
				par := newTestColumn2(t, pages)
				if err := par.FillParallel(mk(), workers); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < pages; p++ {
					a, err := serial.PageBytes(p)
					if err != nil {
						t.Fatal(err)
					}
					b, err := par.PageBytes(p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("page %d differs between serial and parallel fill", p)
					}
				}
			})
		}
	}
}

// newTestColumn2 mirrors newTestColumn with a distinct file name so two
// columns can coexist in one test.
func newTestColumn2(t *testing.T, pages int) *Column {
	t.Helper()
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "col2", pages)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFillParallelStampsExactZones: the parallel path must stamp the same
// exact zones the serial path does.
func TestFillParallelStampsExactZones(t *testing.T) {
	c := newTestColumn(t, 64)
	if err := c.FillParallel(dist.NewUniform(3, 10, 1000), 4); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 64; p++ {
		pg, _ := c.PageBytes(p)
		zMin, zMax := Zone(pg)
		all := ScanFilter(pg, 0, math.MaxUint64)
		if zMin != all.Min || zMax != all.Max {
			t.Fatalf("page %d zone (%d,%d) != actual (%d,%d)", p, zMin, zMax, all.Min, all.Max)
		}
		if PageID(pg) != uint64(p) {
			t.Fatalf("page %d lost its pageID header", p)
		}
	}
}

// TestFillParallelSmallColumn: worker clamping on columns smaller than
// the requested parallelism, down to a single page.
func TestFillParallelSmallColumn(t *testing.T) {
	for _, pages := range []int{1, 2, 7} {
		c := newTestColumn(t, pages)
		if err := c.FillParallel(dist.NewUniform(1, 0, 99), 16); err != nil {
			t.Fatalf("pages=%d: %v", pages, err)
		}
		for p := 0; p < pages; p++ {
			pg, _ := c.PageBytes(p)
			if _, max := Zone(pg); max > 99 {
				t.Fatalf("pages=%d: zone max %d out of bounds", pages, max)
			}
		}
	}
}

func benchmarkFill(b *testing.B, pages, workers int) {
	g := dist.NewUniform(1, 0, 100_000_000)
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	c, err := NewColumn(k, as, "bench", pages)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(pages) * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers == 1 {
			err = c.Fill(g)
		} else {
			err = c.FillParallel(g, workers)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillSerial / BenchmarkFillParallel are the pair the ISSUE asks
// for: the same 4096-page (16 MiB) uniform fill, serial vs sharded across
// workers. Compare ns/op for the speedup.
func BenchmarkFillSerial(b *testing.B) { benchmarkFill(b, 4096, 1) }

func BenchmarkFillParallel(b *testing.B) {
	for _, workers := range []int{2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) { benchmarkFill(b, 4096, workers) })
	}
}
