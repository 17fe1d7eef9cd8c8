package pipeline

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mimdloop/internal/exec"
)

// stubCalibration is a fixed-model pipeline.Calibration: the seam is
// tested here against a stub (the real implementation, calib.Manager,
// lives above pipeline in the import graph and is tested in its own
// package, including a -race refresh-vs-tune test).
type stubCalibration struct {
	model exec.CostModel
	stats CalibStats
}

func (s *stubCalibration) Model() (exec.CostModel, bool) { return s.model, !s.model.IsZero() }
func (s *stubCalibration) CalibStats() CalibStats        { return s.stats }

// TestServerTuneCsimBackend pins the calibrated tune path: with a live
// profile, eval.backend=csim ranks the grid in profile-scaled
// nanoseconds — the echo says csim, every measured block says csim, and
// the makespans carry the model's per-message cost (far larger than the
// raw cycle counts).
func TestServerTuneCsimBackend(t *testing.T) {
	model := exec.CostModel{ComputeNsPerCycle: 5, CommNsPerMessage: 1000, IterOverheadNs: 100}
	srv := NewServerWith(New(Config{}), ServerConfig{Calibration: &stubCalibration{model: model}})
	resp, data := postJSON(t, srv, "/v1/tune", TuneRequest{
		Source:     fig7Source,
		Processors: []int{1, 2},
		CommCosts:  []int{2},
		Iterations: 40,
		Eval:       &EvalRequest{Mode: "measured", Backend: "csim", Trials: 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out TuneResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if out.Evaluator != "measured" || out.Backend != "csim" {
		t.Fatalf("echo: evaluator %q backend %q", out.Evaluator, out.Backend)
	}
	for _, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("point %+v failed: %s", r, r.Error)
		}
		if r.Measured == nil || r.Measured.Backend != "csim" {
			t.Fatalf("point p=%d k=%d measured block: %+v", r.Processors, r.CommCost, r.Measured)
		}
		// 40 iterations × 100 ns overhead alone is 4000 ns; raw sim
		// cycles for this loop are two orders of magnitude below that.
		if r.Measured.MakespanMin < 4000 {
			t.Fatalf("point p=%d k=%d makespan %d not profile-scaled", r.Processors, r.CommCost, r.Measured.MakespanMin)
		}
	}
}

// TestServerTuneCsimNoProfile pins the degradation: with no Calibration
// configured (or none fitted), a csim tune still succeeds and scores
// exactly as raw sim — the measured annotations say "sim", because
// byte-identically that is what ran.
func TestServerTuneCsimNoProfile(t *testing.T) {
	for name, srv := range map[string]*Server{
		"no calibration": NewServer(New(Config{})),
		"unfitted":       NewServerWith(New(Config{}), ServerConfig{Calibration: &stubCalibration{}}),
	} {
		resp, data := postJSON(t, srv, "/v1/tune", TuneRequest{
			Source:     fig7Source,
			Processors: []int{1, 2},
			CommCosts:  []int{2},
			Eval:       &EvalRequest{Mode: "measured", Backend: "csim", Trials: 2, Fluct: 2},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var out TuneResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: decode: %v\n%s", name, err, data)
		}
		if out.Backend != "csim" {
			t.Fatalf("%s: request echo %q", name, out.Backend)
		}
		if out.Best.Measured == nil || out.Best.Measured.Backend != "sim" {
			t.Fatalf("%s: unprofiled csim must degrade to raw sim: %+v", name, out.Best.Measured)
		}
	}
}

// TestServerSimulateCsim pins the schedule-probe path: ?simulate=1
// accepts backend=csim and reports profile-scaled numbers.
func TestServerSimulateCsim(t *testing.T) {
	model := exec.CostModel{ComputeNsPerCycle: 5, CommNsPerMessage: 1000, IterOverheadNs: 100}
	srv := NewServerWith(New(Config{}), ServerConfig{Calibration: &stubCalibration{model: model}})
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule?simulate=1&backend=csim",
		strings.NewReader(`{"source": `+jsonString(fig7Source)+`, "processors": 2, "iterations": 40}`))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Simulated == nil || out.Simulated.Backend != "csim" || out.Simulated.MakespanMin < 4000 {
		t.Fatalf("simulate probe not csim-scaled: %+v", out.Simulated)
	}
}

// TestServerStatsCalibBlock pins the stats surface: with a Calibration
// configured /v1/stats carries its "calib" block verbatim; without one
// the key is absent.
func TestServerStatsCalibBlock(t *testing.T) {
	stats := CalibStats{
		Present: true, AgeSeconds: 12.5, Samples: 24, RMSENs: 5000, FitError: 0.1,
		Clamped: "iter_overhead_ns", Condition: 61.5,
		Refreshes: 3, Model: exec.CostModel{CommNsPerMessage: 900},
	}
	srv := NewServerWith(New(Config{}), ServerConfig{Calibration: &stubCalibration{stats: stats}})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var out struct {
		Calib *CalibStats `json:"calib"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Calib == nil || *out.Calib != stats {
		t.Fatalf("calib stats block drifted: %+v\n%s", out.Calib, rec.Body)
	}

	rec = httptest.NewRecorder()
	NewServer(New(Config{})).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if strings.Contains(rec.Body.String(), `"calib"`) {
		t.Fatalf("uncalibrated server emits a calib block:\n%s", rec.Body)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
