package main

import (
	"time"

	"github.com/asv-db/asv/internal/storage"
)

// The kernel ladder times storage.ScanFilter and storage.CollectMatches on
// the workload's own data: for each of the stream's first queries it builds
// page images of up to ladderPages distinct pages that query qualifies on,
// spread over the column, and scans them at the query's range. The rung
// with a single page scanned over and over is reported beside it: that is
// the shape of a microbenchmark that repeats one cache-hot page, whose
// branch pattern the predictor learns, and it reads faster than a scan of
// distinct pages.
const (
	ladderQueries = 64
	ladderPages   = 1024
)

var ladderRungs = []int{1, 64, ladderPages}

// rung is one ladder step: ns per page scanned, median over the queries.
type rung struct {
	pages            int
	filterNs, collNs float64
}

var kernelSink uint64

func kernelLadder(o *oracle, ops []op) []rung {
	filter := make([][]float64, len(ladderRungs))
	coll := make([][]float64, len(ladderRungs))
	images := make([]byte, ladderPages*storage.PageSize)
	done := 0
	for _, q := range ops {
		if done == ladderQueries {
			break
		}
		if q.kind == opWrite {
			continue
		}
		n := o.pageImages(images, q.lo, q.hi)
		if n == 0 {
			continue
		}
		done++
		for i, size := range ladderRungs {
			if size > n {
				continue
			}
			filter[i] = append(filter[i], timeKernel(images, size, q, true))
			coll[i] = append(coll[i], timeKernel(images, size, q, false))
		}
	}
	var out []rung
	for i, size := range ladderRungs {
		if len(filter[i]) > 0 {
			out = append(out, rung{pages: size, filterNs: median(filter[i]), collNs: median(coll[i])})
		}
	}
	return out
}

// pageImages writes the storage images of up to ladderPages pages that may
// hold values in [lo, hi], evenly spaced over all such pages, and returns
// how many it wrote.
func (o *oracle) pageImages(dst []byte, lo, hi uint64) int {
	var hits []int
	for p := range o.zlo {
		if o.zhi[p] >= lo && o.zlo[p] <= hi {
			hits = append(hits, p)
		}
	}
	n := min(len(hits), ladderPages)
	for i := range n {
		p := hits[i*len(hits)/n]
		img := dst[i*storage.PageSize : (i+1)*storage.PageSize]
		storage.SetPageID(img, uint64(p))
		storage.SetZone(img, o.zlo[p], o.zhi[p])
		for s, v := range o.vals[p*vpp : (p+1)*vpp] {
			storage.SetValueAt(img, s, v)
		}
	}
	return n
}

// timeKernel scans the first size page images at q's range, cycling over
// them until ladderPages page scans are done, and returns ns per page.
// filter selects ScanFilter; otherwise CollectMatches with the min/max
// closure an aggregate query runs.
func timeKernel(images []byte, size int, q op, filter bool) float64 {
	var sink, mn, mx uint64
	mn = ^uint64(0)
	emit := func(_ int, v uint64) {
		mn, mx = min(mn, v), max(mx, v)
	}
	start := time.Now()
	for i := range ladderPages {
		img := images[(i%size)*storage.PageSize : (i%size+1)*storage.PageSize]
		if filter {
			s := storage.ScanFilter(img, q.lo, q.hi)
			sink += uint64(s.Count) + s.Sum
		} else {
			storage.CollectMatches(img, q.lo, q.hi, emit)
		}
	}
	d := time.Since(start)
	kernelSink += sink + mn + mx
	return float64(d.Nanoseconds()) / ladderPages
}
