package experiments

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mimdloop/internal/calib"
	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
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

// countingSim is the sim backend with a count of the trial runs it
// made. It is deterministic, so the evaluator memoizes it.
type countingSim struct {
	exec.Sim
	runs atomic.Int64
}

func (c *countingSim) RunTrials(g *graph.Graph, progs []program.Program, iterations int, cfg exec.TrialConfig) (*exec.TrialStats, error) {
	c.runs.Add(1)
	return c.Sim.RunTrials(g, progs, iterations, cfg)
}

// TestTimedRepeatsRunFresh: 1c reports the fastest of a deterministic
// tune's timed repeats, so every repeat must run its trials. Repeats on
// the same plans would replay the plan's memo and time a lookup; the
// harness tunes each repeat after the first on fresh plans, and the
// shared pipeline's replay counter stays put.
func TestTimedRepeatsRunFresh(t *testing.T) {
	g, err := workload.Random(workload.PaperSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	pipe := pipeline.New(pipeline.Config{})
	be := &countingSim{}
	v, err := tuneAndJudge(pipe, g, 1, 40, []ranking{
		{grid: calibratedGrid},
		{grid: calibratedGrid, eval: &pipeline.MeasuredEvaluator{Trials: 1, Backend: be}, repeats: calibratedTimingRuns},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(calibratedGrid.Processors) * len(calibratedGrid.CommCosts)
	if got := be.runs.Load(); got != int64(calibratedTimingRuns*cells) {
		t.Errorf("%d timed repeats over %d cells ran the backend %d times, want %d",
			calibratedTimingRuns, cells, got, calibratedTimingRuns*cells)
	}
	if st := pipe.Stats().Evals; st.Replayed != 0 || st.Measured != uint64(cells) {
		t.Errorf("shared pipeline evals %+v, want %d measured and none replayed", st, cells)
	}
	if v[1].tune == nil || v[1].tuneNs <= 0 {
		t.Errorf("timed ranking verdict %+v", v[1])
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
