package calib

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mimdloop/internal/pipeline"
	"mimdloop/internal/workload"
)

// TestRefreshRacesTune is the -race pin for serve mode's background
// calibration: refreshes replacing the live profile while concurrent
// /v1/tune requests read it through the csim path must be clean — no
// data race between Manager.Refresh's store and the server's per-tune
// Model loads, and every tune must succeed and come back csim-scored.
func TestRefreshRacesTune(t *testing.T) {
	m := NewManager(ProfilePath(t.TempDir()))
	if _, err := m.Refresh(Quick()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pipeline.NewServerWith(pipeline.New(pipeline.Config{}), pipeline.ServerConfig{
		Calibration: m,
	}))
	defer srv.Close()

	// The grain axis rides along: figure 7 is infeasible at grains 2 and
	// 4 (its dependence cycle folds to distance zero), so the tune
	// exercises both the chunked-cell error path and the grain-1 csim
	// path under concurrent profile replacement.
	body := fmt.Sprintf(
		`{"source": %q, "processors": [2, 3], "comm_costs": [2], "grains": [1, 2, 4], "iterations": 30, "eval": {"mode": "measured", "backend": "csim", "trials": 2}}`,
		workload.Figure7Source)
	// A chunk-friendly chain makes the grain cells actually execute
	// chunked csim runs, racing the same refreshes.
	chainBody := `{"source": "loop chain(N = 100) {\n A[i] = A[i-1] + U[i]\n B[i] = B[i-1] + A[i]\n C[i] = C[i-1] + B[i]\n}", "processors": [2], "comm_costs": [2], "grains": [1, 2, 4], "iterations": 30, "eval": {"mode": "measured", "backend": "csim", "trials": 2}}`
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// A quick refit may clamp a coefficient the live fit kept; Refresh
	// then refuses it by design and keeps the live profile, so only the
	// installed refreshes count.
	installed := uint64(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			_, err := m.Refresh(Quick())
			switch {
			case err == nil:
				installed++
			case !errors.Is(err, errDegenerateFit):
				errs <- fmt.Errorf("refresh %d: %w", i, err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				b := body
				if (w+i)%2 == 1 {
					b = chainBody
				}
				resp, err := http.Post(srv.URL+"/v1/tune", "application/json", strings.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				var out pipeline.TuneResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d tune %d: status %d", w, i, resp.StatusCode)
					return
				}
				if out.Backend != "csim" || out.Best.Measured == nil || out.Best.Measured.Backend != "csim" {
					errs <- fmt.Errorf("worker %d tune %d not csim-scored: backend %q measured %+v",
						w, i, out.Backend, out.Best.Measured)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cs := m.CalibStats(); cs.Refreshes != installed || !cs.Present {
		t.Fatalf("refresh accounting: %+v", cs)
	}
}
