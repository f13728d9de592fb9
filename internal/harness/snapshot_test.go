package harness

import (
	"strconv"
	"testing"
)

func TestRunSnapshot(t *testing.T) {
	s := tinyScale()
	if raceEnabled {
		// Race-slowed alignment makes each storm pass expensive; shorter
		// update streams keep the sweep cheap without changing what is
		// exercised.
		s.MixedUpdates = 200
	}
	tbl, err := RunSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "snapshot" {
		t.Fatalf("id = %q", tbl.ID)
	}
	wantHeader := []string{"readers", "epoch_qps", "pinned_qps"}
	if len(tbl.Header) != len(wantHeader) {
		t.Fatalf("header %v", tbl.Header)
	}
	for i, h := range wantHeader {
		if tbl.Header[i] != h {
			t.Fatalf("header[%d] = %q, want %q", i, tbl.Header[i], h)
		}
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want one per reader count", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(wantHeader) {
			t.Fatalf("row %v: %d cells", row, len(row))
		}
		// Every read path must have made progress under the storm.
		for _, cell := range row[1:] {
			qps, err := strconv.ParseFloat(cell, 64)
			if err != nil || qps <= 0 {
				t.Fatalf("row %v: bad throughput cell %q", row, cell)
			}
		}
	}
}
