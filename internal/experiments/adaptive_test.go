package experiments

import (
	"strings"
	"testing"
)

// TestTable1AdaptiveAcceptance pins the adaptive table's outcomes on the
// fake backend. Where a message costs as much as 100 cycles, the
// grain-tuned winners are at least 1.5x faster than the grain-1 winners
// and the serial fallback never loses its best-of-32 head-to-head
// re-measure. Where messages are free, pipelining pays at any n, so the
// fallback loses. The real-hardware floors are reported by
// `paperbench -table 1ad`, not asserted here.
func TestTable1AdaptiveAcceptance(t *testing.T) {
	res, err := table1Adaptive(len(adaptiveShapes), 0, 0, fakeBackend{fakeModel})
	if err != nil {
		t.Fatal(err)
	}
	checkAdaptiveRows(t, res)
	if res.MeanSpeedup < 1.5 || res.SerialLosses != 0 {
		t.Errorf("mean speedup %.2fx with %d serial losses, want >= 1.5x and none\n%s",
			res.MeanSpeedup, res.SerialLosses, res.Format())
	}
	free, err := table1Adaptive(len(adaptiveShapes), 0, 0, fakeBackend{freeMessages})
	if err != nil {
		t.Fatal(err)
	}
	checkAdaptiveRows(t, free)
	if free.SerialLosses == 0 {
		t.Errorf("serial fallback never lost with free messages\n%s", free.Format())
	}
}

// checkAdaptiveRows sanity-checks table structure: every row measured
// both tunes, the tuned grid strictly contains the fixed one (so its
// winner carries a real grain), and the probe produced rates.
func checkAdaptiveRows(t *testing.T, res *Table1AdaptiveResult) {
	t.Helper()
	if len(res.Rows) != len(adaptiveShapes) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(adaptiveShapes))
	}
	for i, row := range res.Rows {
		if row.Loop != i || row.Shape == "" || row.Nodes < 4 {
			t.Fatalf("row %d malformed: %+v", i, row)
		}
		if row.FixedNs <= 0 || row.TunedNs <= 0 || row.SerialNs <= 0 || row.SerialParNs <= 0 {
			t.Fatalf("row %d has unmeasured rates: %+v", i, row)
		}
		if row.FixedPoint.Grain > 1 {
			t.Fatalf("row %d: grain-1 tune picked grain %d", i, row.FixedPoint.Grain)
		}
		if row.TunedPoint.Grain < 1 {
			t.Fatalf("row %d: grain tune returned grain %d", i, row.TunedPoint.Grain)
		}
	}
	if res.Iterations != 128 || res.Trials != 8 {
		t.Fatalf("defaults not applied: n=%d trials=%d", res.Iterations, res.Trials)
	}
	out := res.Format()
	for _, want := range []string{"speedup", "ser ns/it", "grain-tuned gort"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestTable1AdaptiveArgs pins argument validation and clamping.
func TestTable1AdaptiveArgs(t *testing.T) {
	if _, err := Table1Adaptive(0, 0, 0); err == nil {
		t.Fatal("count 0 accepted")
	}
	res, err := table1Adaptive(1000, 16, 1, fakeBackend{fakeModel})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(adaptiveShapes) {
		t.Fatalf("count not clamped: %d rows", len(res.Rows))
	}
	if res.Iterations != 16 || res.Trials != 1 {
		t.Fatalf("explicit n/trials not kept: n=%d trials=%d", res.Iterations, res.Trials)
	}
}
