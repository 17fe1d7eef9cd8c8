package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mimdloop/internal/calib"
	"mimdloop/internal/workload"
)

// TestTable1Golden pins the rendered Table 1 artifacts at paper scale (25
// loops, 100 iterations; 5 trials for 1m) and the ablations to the sha256
// of their output, computed with the map-based simulator. Every Table 1
// number comes from the simulated machine, so a simulator change that
// moves one cycle of any run changes a digest.
//
// The three wall-clock comparisons (1g, 1c and 1ad) are pinned at their
// default sizes on the fake backend instead of the goroutine runtime,
// with 1c ranking by a csim profile equal to the fake's model. 1c's tune
// latencies are wall-clock readings even on the fake, so they are zeroed
// before rendering.
func TestTable1Golden(t *testing.T) {
	t1, err := Table1(25, 100)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Table1Tuned(25, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := Table1Measured(25, 100, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	gort, err := table1Goroutine(25, 100, 3, fakeBackend{fakeModel})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := table1Calibrated(25, 100, 0, &calib.Profile{Model: fakeModel, Samples: 24}, fakeBackend{fakeModel})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cal.Rows {
		cal.Rows[i].CsimTuneNs, cal.Rows[i].GortTuneNs = 0, 0
	}
	cal.CsimTuneNsMean, cal.GortTuneNsMean, cal.LatencyRatio = 0, 0, 0
	adaptive, err := table1Adaptive(len(adaptiveShapes), 0, 0, fakeBackend{fakeModel})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, out, want string
	}{
		{"1a", t1.FormatA(), "144c875d37b53a29af9b35d7ab3a82fdbb93791c134b40bc2c816942480caa08"},
		{"1b", t1.FormatB(), "9cc2b0ee15d5aedc19f99b866267916f45bf7f45f61024591211e6d3759ecc62"},
		{"1t", tuned.Format(), "089e3fcbe5344e4c74e048baaa85567b00d7d6239c1c1af7b7ae805703e5ef64"},
		{"1m", measured.Format(), "d77b6cfba6c88e05c34e18c66935b41f9020b348b92d6d2bb93428525a1fd56a"},
		{"ablations", ablationsText(t), "acbbff8c7f0823b71a819ab9edcaa41179593b365187a6e38c586c5037cbbd16"},
		{"1g", gort.Format(), "038050e5f1596907a62e12651e238d938c3aa7f37ff02683f572a6df8bd23e71"},
		{"1c", cal.Format(), "efedfddd1ac7c4e9423e9081588673b9927752b509cbaccf02241ec7ad81a37c"},
		{"1ad", adaptive.Format(), "8ea691891422b0dff57ba07f6bfe0d18fb1fa212986da4bd7ec47ef447855cfe"},
	} {
		sum := sha256.Sum256([]byte(c.out))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("table %s digest %s, want %s; output:\n%s", c.name, got, c.want, c.out)
		}
	}
}

// ablationsText renders every ablation the way paperbench -ablations
// runs them, at 100 iterations.
func ablationsText(t *testing.T) string {
	t.Helper()
	fig7 := workload.Figure7().Graph
	loop0, err := workload.Random(workload.PaperSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := AblationKEstimate(fig7, []int{0, 1, 2, 3, 5, 7}, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("%+v\n", k)
	for _, f := range []func() ([]RateRow, error){
		func() ([]RateRow, error) { return AblationPlacement(loop0, 3) },
		func() ([]RateRow, error) { return AblationQueueOrder(loop0, 3) },
		func() ([]RateRow, error) { return AblationProcessors(loop0, 3, []int{2, 4, 8, 16}) },
		func() ([]RateRow, error) { return AblationPerfectPipelining([]int{0, 1, 2, 4}) },
		func() ([]RateRow, error) { return AblationCommModel(fig7, 2) },
	} {
		rows, err := f()
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%+v\n", rows)
	}
	return out
}
