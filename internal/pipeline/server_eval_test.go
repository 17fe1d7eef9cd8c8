package pipeline

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestServerTuneMeasured(t *testing.T) {
	srv := NewServer(New(Config{}))
	resp, data := postJSON(t, srv, "/v1/tune", TuneRequest{
		Source:     fig7Source,
		Processors: []int{1, 2, 3},
		CommCosts:  []int{2, 3},
		Eval:       &EvalRequest{Mode: "measured", Trials: 5, Fluct: 3, Seed: 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out TuneResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if out.Evaluator != "measured" {
		t.Fatalf("evaluator echo %q", out.Evaluator)
	}
	if out.Best.Measured == nil || out.Best.Measured.Trials != 5 || out.Best.Measured.Fluct != 3 {
		t.Fatalf("best carries no measured stats: %+v", out.Best)
	}
	for _, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("point %+v failed: %s", r, r.Error)
		}
		m := r.Measured
		if m == nil {
			t.Fatalf("point p=%d k=%d has no measured block", r.Processors, r.CommCost)
		}
		if m.SpMin > m.SpMean || m.SpMean > m.SpMax || m.MakespanMin > m.MakespanMax {
			t.Fatalf("spread out of order: %+v", m)
		}
		if r.Rate == 0 {
			t.Fatal("static rate missing from measured tune point")
		}
	}
	// The best point's measured Sp is the grid's maximum under min_rate.
	for _, r := range out.Results {
		if r.Measured.SpMean > out.Best.Measured.SpMean {
			t.Fatalf("point p=%d k=%d Sp %.2f beats the winner's %.2f",
				r.Processors, r.CommCost, r.Measured.SpMean, out.Best.Measured.SpMean)
		}
	}

	// A static tune of the same loop carries no measured blocks.
	resp, data = postJSON(t, srv, "/v1/tune", TuneRequest{
		Source: fig7Source, Processors: []int{1, 2}, CommCosts: []int{2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static status %d: %s", resp.StatusCode, data)
	}
	var static TuneResponse
	if err := json.Unmarshal(data, &static); err != nil {
		t.Fatal(err)
	}
	if static.Evaluator != "static" || static.Best.Measured != nil {
		t.Fatalf("static tune: evaluator %q, measured %+v", static.Evaluator, static.Best.Measured)
	}
}

func TestServerTuneEvalCaps(t *testing.T) {
	srv := NewServer(New(Config{}))
	for _, tc := range []struct {
		name   string
		eval   *EvalRequest
		status int
	}{
		{"unknown mode", &EvalRequest{Mode: "oracle"}, http.StatusBadRequest},
		{"trials over cap", &EvalRequest{Mode: "measured", Trials: maxEvalTrials + 1}, http.StatusBadRequest},
		{"negative trials", &EvalRequest{Mode: "measured", Trials: -1}, http.StatusBadRequest},
		{"fluct over cap", &EvalRequest{Mode: "measured", Fluct: maxEvalFluct + 1}, http.StatusBadRequest},
		{"trial budget", &EvalRequest{Mode: "measured", Trials: 32, Fluct: 3}, http.StatusRequestEntityTooLarge},
	} {
		req := TuneRequest{Source: fig7Source, Eval: tc.eval}
		if tc.name == "trial budget" {
			// 64 points x 32 trials = 2048 > 1024, grid itself under cap.
			req.Processors = []int{1, 2, 3, 4, 5, 2, 3, 4}
			req.CommCosts = []int{1, 2, 3, 4, 1, 2, 3, 4}
		} else {
			req.Processors = []int{2}
			req.CommCosts = []int{2}
		}
		resp, data := postJSON(t, srv, "/v1/tune", req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
	}
	// A static tune ignores the trial budget entirely: the full 128-point
	// grid stays admissible.
	req := TuneRequest{Source: fig7Source}
	resp, data := postJSON(t, srv, "/v1/tune", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default static tune rejected: %d %s", resp.StatusCode, data)
	}
	// Fluctuation-free measured tuning collapses to one trial per point,
	// and the budget bills what actually runs: a request that would blow
	// the budget at face value (32 default points x 16 requested trials)
	// is admitted because it costs 32 simulations.
	resp, data = postJSON(t, srv, "/v1/tune", TuneRequest{
		Source: fig7Source,
		Eval:   &EvalRequest{Mode: "measured", Trials: 16, Fluct: 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fluct-free measured tune over-billed: %d %s", resp.StatusCode, data)
	}
}

// TestServerTuneGortBackend is the end-to-end acceptance pin: a tune
// with eval.backend=gort ranks the grid on the real goroutine runtime,
// echoes the backend identity, returns a winner whose measured block
// carries it — and the annotation persists through the plan store.
func TestServerTuneGortBackend(t *testing.T) {
	pipe := New(Config{})
	srv := NewServer(pipe)
	resp, data := postJSON(t, srv, "/v1/tune", TuneRequest{
		Source:     fig7Source,
		Processors: []int{1, 2},
		CommCosts:  []int{2},
		Eval:       &EvalRequest{Mode: "measured", Backend: "gort", Objective: "worst", Trials: 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out TuneResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if out.Evaluator != "measured" || out.Backend != "gort" {
		t.Fatalf("echo: evaluator %q backend %q", out.Evaluator, out.Backend)
	}
	if out.Best.Measured == nil || out.Best.Measured.Backend != "gort" || out.Best.Measured.Trials != 2 {
		t.Fatalf("winner's measured block: %+v", out.Best.Measured)
	}
	for _, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("point %+v failed: %s", r, r.Error)
		}
		if r.Measured == nil || r.Measured.Backend != "gort" {
			t.Fatalf("point p=%d k=%d measured block: %+v", r.Processors, r.CommCost, r.Measured)
		}
		if r.Measured.MakespanMin <= 0 {
			t.Fatalf("implausible wall-clock makespan: %+v", r.Measured)
		}
	}
	// The annotation reached the plan store under the backend's name.
	lister := pipe.Store().(PlanLister)
	annotated := 0
	for _, info := range lister.Plans() {
		plan, ok := pipe.Store().Get(info.Key)
		if !ok {
			t.Fatalf("stored plan %q vanished", info.Key)
		}
		if m := plan.MeasuredBy("gort"); m != nil {
			annotated++
			if m.Backend != "gort" {
				t.Fatalf("stored annotation backend %q", m.Backend)
			}
		}
	}
	if annotated != len(out.Results) {
		t.Fatalf("%d stored plans carry the gort annotation, want %d", annotated, len(out.Results))
	}
}

// TestServerGortCaps: the goroutine backend's tighter serving caps and
// parameter rules reject before any real execution.
func TestServerGortCaps(t *testing.T) {
	srv := NewServer(New(Config{}))
	for _, tc := range []struct {
		name   string
		req    TuneRequest
		status int
	}{
		{"unknown backend",
			TuneRequest{Source: fig7Source, Processors: []int{2}, CommCosts: []int{2},
				Eval: &EvalRequest{Mode: "measured", Backend: "fpga"}},
			http.StatusBadRequest},
		{"unknown objective",
			TuneRequest{Source: fig7Source, Processors: []int{2}, CommCosts: []int{2},
				Eval: &EvalRequest{Mode: "measured", Objective: "median"}},
			http.StatusBadRequest},
		{"gort trials over cap",
			TuneRequest{Source: fig7Source, Processors: []int{2}, CommCosts: []int{2},
				Eval: &EvalRequest{Mode: "measured", Backend: "gort", Trials: maxGortEvalTrials + 1}},
			http.StatusBadRequest},
		{"gort rejects fluct",
			TuneRequest{Source: fig7Source, Processors: []int{2}, CommCosts: []int{2},
				Eval: &EvalRequest{Mode: "measured", Backend: "gort", Fluct: 3}},
			http.StatusBadRequest},
		{"gort trial budget",
			// 24 points x 3 trials = 72 > 64, admissible on the sim budget.
			TuneRequest{Source: fig7Source,
				Processors: []int{1, 2, 3, 4, 5, 1, 2, 3}, CommCosts: []int{1, 2, 3},
				Eval: &EvalRequest{Mode: "measured", Backend: "gort", Trials: 3}},
			http.StatusRequestEntityTooLarge},
		{"same budget fine on sim",
			TuneRequest{Source: fig7Source,
				Processors: []int{1, 2, 3, 4, 5, 1, 2, 3}, CommCosts: []int{1, 2, 3},
				Eval: &EvalRequest{Mode: "measured", Fluct: 3, Trials: 3}},
			http.StatusOK},
	} {
		resp, data := postJSON(t, srv, "/v1/tune", tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
	}
}

// TestServerScheduleSimulateGort: the ?simulate=1 probe runs on the
// goroutine backend when asked, reporting wall-clock stats without
// annotating the served plan.
func TestServerScheduleSimulateGort(t *testing.T) {
	pipe := New(Config{})
	srv := NewServer(pipe)
	body, err := json.Marshal(ScheduleRequest{Source: fig7Source, Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost,
		"/v1/schedule?simulate=1&backend=gort&objective=worst&trials=2", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var out ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	sim := out.Simulated
	if sim == nil || sim.Backend != "gort" || sim.Trials != 2 || sim.MakespanMin <= 0 {
		t.Fatalf("simulated block %+v", sim)
	}
	// Transient: the probe never annotated the stored plan.
	for _, info := range pipe.Store().(PlanLister).Plans() {
		plan, _ := pipe.Store().Get(info.Key)
		if plan != nil && plan.MeasuredBy("gort") != nil {
			t.Fatal("gort probe annotated the stored plan")
		}
	}
}

func TestServerScheduleSimulate(t *testing.T) {
	srv := NewServer(New(Config{}))
	body, err := json.Marshal(ScheduleRequest{Source: fig7Source, Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	post := func(query string) (*http.Response, []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule"+query, strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Result(), rec.Body.Bytes()
	}

	resp, data := post("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Simulated != nil {
		t.Fatal("unsolicited simulation in plain reply")
	}

	resp, data = post("?simulate=1&trials=4&fluct=3&seed=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	sim := out.Simulated
	if sim == nil || sim.Trials != 4 || sim.Fluct != 3 || sim.Seed != 7 {
		t.Fatalf("simulated block %+v", sim)
	}
	if sim.MakespanMin <= 0 || sim.SpMean <= 0 {
		t.Fatalf("implausible simulation: %+v", sim)
	}
	if !out.CacheHit {
		t.Fatal("simulate should still serve the cached plan")
	}

	for _, bad := range []string{
		"?simulate=yes",
		"?simulate=1&trials=99",
		fmt.Sprintf("?simulate=1&fluct=%d", maxEvalFluct+1),
		"?simulate=1&seed=abc",
	} {
		if resp, data := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", bad, resp.StatusCode, data)
		}
	}

	// Evaluator counters surface in /v1/stats.
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var stats struct {
		Evals EvalStats `json:"evals"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Evals.Measured != 1 || stats.Evals.Trials != 4 {
		t.Fatalf("stats evals %+v", stats.Evals)
	}
}

// TestServerRepeatedTuneReplays: a repeated sim tune and a simulate probe
// under the same trial configuration replay the plans' memos. The
// repeated tune's reply is byte-identical to the first measured tune's,
// /v1/stats counts the replays, and trials counts only the trials that
// ran.
func TestServerRepeatedTuneReplays(t *testing.T) {
	srv := NewServer(New(Config{}))
	tune := TuneRequest{
		Source: fig7Source, Processors: []int{2, 3}, CommCosts: []int{2}, Iterations: 100,
	}
	// A static tune schedules the grid, so both measured tunes hit.
	if resp, data := postJSON(t, srv, "/v1/tune", tune); resp.StatusCode != http.StatusOK {
		t.Fatalf("static tune: status %d: %s", resp.StatusCode, data)
	}
	tune.Eval = &EvalRequest{Mode: "measured", Trials: 3, Fluct: 3, Seed: 9}
	var replies [][]byte
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, srv, "/v1/tune", tune)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tune %d: status %d: %s", i, resp.StatusCode, data)
		}
		replies = append(replies, data)
	}
	if string(replies[0]) != string(replies[1]) {
		t.Fatalf("repeated tune reply changed:\n%s\n%s", replies[0], replies[1])
	}
	k := 2
	body, err := json.Marshal(ScheduleRequest{Source: fig7Source, Processors: 2, CommCost: &k, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule?simulate=1&trials=3&fluct=3&seed=9", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("probe: status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		Evals EvalStats `json:"evals"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if want := (EvalStats{Static: 2, Measured: 5, Replayed: 3, Trials: 6}); stats.Evals != want {
		t.Fatalf("stats evals %+v, want %+v", stats.Evals, want)
	}
}
