package experiments

import (
	"math"
	"strings"
	"testing"

	"mimdloop/internal/calib"
)

// TestTable1CalibratedAcceptance pins the calibration table's scoring on
// the fake backend, whose ground truth is a known cost model. A csim
// profile equal to that model ranks every loop within the regret
// tolerance of the truth's winner: the fake's noise (under 10%) is
// smaller than the tolerance (25%). A profile that prices messages at
// nothing prefers the wide cell the truth pays for in messages, and at
// least one loop disagrees. The real-hardware floors (≥80% agreement,
// a csim tune under 1% of the gort tune) are reported by
// `paperbench -table 1c`, not asserted here.
func TestTable1CalibratedAcceptance(t *testing.T) {
	truth := fakeBackend{fakeModel}
	same, err := table1Calibrated(10, 40, 0, &calib.Profile{Model: fakeModel, Samples: 24}, truth)
	if err != nil {
		t.Fatal(err)
	}
	if same.CsimAgreements != len(same.Rows) || same.CsimAgreePct != 100 {
		t.Errorf("csim with the truth's own model agrees on %d/%d loops, want all\n%s",
			same.CsimAgreements, len(same.Rows), same.Format())
	}
	free, err := table1Calibrated(10, 40, 0, &calib.Profile{Model: freeMessages, Samples: 24}, truth)
	if err != nil {
		t.Fatal(err)
	}
	if free.CsimAgreements == len(free.Rows) {
		t.Errorf("csim with free messages agrees on every loop\n%s", free.Format())
	}
	if same.Trials != 20 {
		t.Fatalf("default gort trial count drifted: %d", same.Trials)
	}
	for _, res := range []*Table1CalibratedResult{same, free} {
		for _, row := range res.Rows {
			if row.Nodes <= 0 || row.SimAgree != (row.SimRegret <= calibratedRegretTol) ||
				row.CsimAgree != (row.CsimRegret <= calibratedRegretTol) {
				t.Fatalf("row shape: %+v", row)
			}
			for _, rgt := range []float64{row.SimRegret, row.CsimRegret} {
				if rgt < 0 || math.IsInf(rgt, 0) || math.IsNaN(rgt) {
					t.Fatalf("regret %v: %+v", rgt, row)
				}
			}
		}
	}
	out := same.Format()
	for _, want := range []string{"csim p,k", "csim rgt", "of gort tune", "profile:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestTable1CalibratedRejectsBadCount(t *testing.T) {
	if _, err := Table1Calibrated(0, 10, 1, calib.Quick()); err == nil {
		t.Fatal("count 0 accepted")
	}
	if _, err := Table1Calibrated(26, 10, 1, calib.Quick()); err == nil {
		t.Fatal("count 26 accepted")
	}
}
