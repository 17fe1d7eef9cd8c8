package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestTable1GoroutineSmoke runs a CI-sized goroutine-backend comparison
// on the fake backend and pins its structure and finiteness; the golden
// digest pins its numbers.
func TestTable1GoroutineSmoke(t *testing.T) {
	res, err := table1Goroutine(2, 20, 1, fakeBackend{fakeModel})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Trials != 1 {
		t.Fatalf("result shape: %+v", res)
	}
	for _, row := range res.Rows {
		if row.Nodes <= 0 {
			t.Fatalf("row %+v", row)
		}
		for _, ns := range []float64{row.SimNs, row.GortNs} {
			if ns <= 0 || math.IsInf(ns, 0) || math.IsNaN(ns) {
				t.Fatalf("wall-clock rate %v ns/iter: %+v", ns, row)
			}
		}
		if row.SimPoint.Processors == 0 || row.GortPoint.Processors == 0 {
			t.Fatalf("missing winner: %+v", row)
		}
	}
	out := res.Format()
	for _, want := range []string{"sim p,k", "gort p,k", "winners agree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestTable1GoroutineRejectsBadCount(t *testing.T) {
	if _, err := Table1Goroutine(0, 10, 1); err == nil {
		t.Fatal("count 0 accepted")
	}
	if _, err := Table1Goroutine(26, 10, 1); err == nil {
		t.Fatal("count 26 accepted")
	}
}
