package calib

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mimdloop/internal/exec"
)

// TestFitRecoversSyntheticModel pins the solver: observations generated
// from a known linear model fit back to it (near-)exactly, residuals
// reported as zero.
func TestFitRecoversSyntheticModel(t *testing.T) {
	want := exec.CostModel{ComputeNsPerCycle: 4.5, CommNsPerMessage: 900, IterOverheadNs: 120}
	var rows []obs
	for _, x := range [][3]float64{
		{100, 10, 20}, {250, 40, 20}, {400, 5, 60}, {800, 80, 60}, {1200, 0, 100}, {60, 25, 10},
	} {
		rows = append(rows, obs{x: x, y: want.PlanNs(x[0], int(x[1]), int(x[2]))})
	}
	p, err := fit(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, rmse, mae := p.Model, p.RMSENs, p.FitError
	const tol = 1e-6
	if diff := got.ComputeNsPerCycle - want.ComputeNsPerCycle; diff > tol || diff < -tol {
		t.Errorf("compute %v, want %v", got.ComputeNsPerCycle, want.ComputeNsPerCycle)
	}
	if diff := got.CommNsPerMessage - want.CommNsPerMessage; diff > tol || diff < -tol {
		t.Errorf("comm %v, want %v", got.CommNsPerMessage, want.CommNsPerMessage)
	}
	if diff := got.IterOverheadNs - want.IterOverheadNs; diff > tol || diff < -tol {
		t.Errorf("iter %v, want %v", got.IterOverheadNs, want.IterOverheadNs)
	}
	if rmse > 1e-3 || mae > 1e-6 {
		t.Errorf("exact data left residuals: rmse %v, mae %v", rmse, mae)
	}
	if p.Clamped != "" || p.Condition < 1 || math.IsInf(p.Condition, 0) {
		t.Errorf("identifiable suite reported clamped %q, condition %v", p.Clamped, p.Condition)
	}
}

// TestFitClampsNegativeCoefficients pins the nonnegativity guard: data
// that pulls a coefficient negative refits with that column dropped
// rather than shipping a physically meaningless (and ranking-inverting)
// negative cost.
func TestFitClampsNegativeCoefficients(t *testing.T) {
	// y depends on cycles only, with messages anticorrelated to cycles:
	// the unconstrained comm coefficient comes out negative.
	var rows []obs
	for _, x := range [][3]float64{
		{100, 90, 20}, {200, 80, 20}, {400, 60, 60}, {800, 20, 60}, {1600, 5, 100},
	} {
		rows = append(rows, obs{x: x, y: 10*x[0] - 3*x[1]})
	}
	p, err := fit(rows)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Model
	if got.CommNsPerMessage < 0 || got.ComputeNsPerCycle < 0 || got.IterOverheadNs < 0 {
		t.Fatalf("negative coefficient survived: %+v", got)
	}
	// Both non-compute columns pull negative here; the fit records each.
	if p.Clamped != "comm_ns_per_message,iter_overhead_ns" || got.CommNsPerMessage != 0 || got.IterOverheadNs != 0 {
		t.Fatalf("clamps not recorded: clamped %q, model %+v", p.Clamped, got)
	}
}

// TestFitSingularSuite pins the degenerate-suite error path: identical
// observation rows cannot determine three coefficients.
func TestFitSingularSuite(t *testing.T) {
	rows := []obs{
		{x: [3]float64{100, 10, 20}, y: 1000},
		{x: [3]float64{100, 10, 20}, y: 1000},
		{x: [3]float64{100, 10, 20}, y: 1000},
		{x: [3]float64{100, 10, 20}, y: 1000},
	}
	if _, err := fit(rows); err == nil {
		t.Fatal("singular normal equations accepted")
	}
}

// TestCalibrateEndToEnd runs a real (quick) probe pass: the profile
// must carry a usable nonzero model, plausible residual accounting, and
// its provenance.
func TestCalibrateEndToEnd(t *testing.T) {
	p, err := Calibrate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if p.Model.IsZero() {
		t.Fatal("calibration fitted the zero model")
	}
	if p.Model.SeqNsPerCycle <= 0 {
		t.Fatalf("sequential scale not fitted: %+v", p.Model)
	}
	if p.Samples < 4 || p.RMSENs < 0 || p.FitError < 0 {
		t.Fatalf("implausible fit accounting: %+v", p)
	}
	if p.Probes != 2 || p.Trials != 2 || p.Seed != 1 {
		t.Fatalf("provenance drifted: %+v", p)
	}
	if p.CreatedUnixNs <= 0 || p.Age() < 0 || p.Age() > time.Minute {
		t.Fatalf("created timestamp implausible: %d", p.CreatedUnixNs)
	}
}

// TestManagerLifecycle pins the manager: unfitted stats, refresh
// installing + persisting + counting, and a restarted manager resuming
// from the persisted profile.
func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(ProfilePath(dir))
	if err := m.Load(); err != nil {
		t.Fatalf("load with no profile file: %v", err)
	}
	if _, ok := m.Model(); ok {
		t.Fatal("unfitted manager reported a model")
	}
	cs := m.CalibStats()
	if cs.Present || cs.Refreshes != 0 {
		t.Fatalf("unfitted stats: %+v", cs)
	}

	p, err := m.Refresh(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if model, ok := m.Model(); !ok || model != p.Model {
		t.Fatalf("refresh did not install the fit: %v", model)
	}
	cs = m.CalibStats()
	if !cs.Present || cs.Refreshes != 1 || cs.Samples != p.Samples || cs.Model != p.Model {
		t.Fatalf("stats after refresh: %+v", cs)
	}
	if _, err := os.Stat(ProfilePath(dir)); err != nil {
		t.Fatalf("refresh did not persist: %v", err)
	}

	m2 := NewManager(ProfilePath(dir))
	if err := m2.Load(); err != nil {
		t.Fatal(err)
	}
	p2 := m2.Profile()
	if p2 == nil || p2.Model != p.Model || p2.CreatedUnixNs != p.CreatedUnixNs {
		t.Fatalf("restart did not resume the persisted profile: %+v", p2)
	}
}

// TestRefreshKeepsHealthyProfile pins the install rule behind Refresh on
// constructed profiles: a fit that clamped a coefficient to zero never
// replaces one that clamped none, and nothing else is refused — not a
// first fit, not a healthy fit over a degenerate one, not a degenerate
// fit over another, and not a poorly conditioned fit (the condition
// estimate is reported only).
func TestRefreshKeepsHealthyProfile(t *testing.T) {
	healthy := &Profile{Model: exec.CostModel{ComputeNsPerCycle: 400, CommNsPerMessage: 500, IterOverheadNs: 3000}, Samples: 24, Condition: 40}
	clamped := &Profile{Model: exec.CostModel{ComputeNsPerCycle: 400, IterOverheadNs: 3500}, Samples: 24, Clamped: "comm_ns_per_message", Condition: 900}
	illConditioned := &Profile{Model: healthy.Model, Samples: 24, Condition: 1e9}
	m := NewManager("")
	for i, step := range []struct {
		p        *Profile
		refused  bool
		wantLive *Profile
	}{
		{clamped, false, clamped},               // nothing live yet
		{clamped, false, clamped},               // degenerate over degenerate
		{healthy, false, healthy},               // healthy over degenerate
		{clamped, true, healthy},                // degenerate over healthy: refused
		{illConditioned, false, illConditioned}, // condition is not a threshold
		{clamped, true, illConditioned},
	} {
		before := m.CalibStats().Refreshes
		err := m.install(step.p)
		if refused := errors.Is(err, errDegenerateFit); refused != step.refused || (err != nil && !refused) {
			t.Fatalf("step %d: install error %v, want refused=%v", i, err, step.refused)
		}
		if m.Profile() != step.wantLive {
			t.Fatalf("step %d: live profile %+v, want %+v", i, m.Profile(), step.wantLive)
		}
		if want := before + map[bool]uint64{true: 0, false: 1}[step.refused]; m.CalibStats().Refreshes != want {
			t.Fatalf("step %d: refreshes %d, want %d", i, m.CalibStats().Refreshes, want)
		}
	}
	cs := m.CalibStats()
	if cs.Clamped != "" || cs.Condition != 1e9 {
		t.Fatalf("stats do not report the live fit's guard: %+v", cs)
	}
	m.Set(clamped)
	if cs := m.CalibStats(); cs.Clamped != "comm_ns_per_message" || cs.Condition != 900 {
		t.Fatalf("stats do not report the clamped coefficient: %+v", cs)
	}
}

// TestInstallConcurrent drives the install rule from several goroutines
// at once (run it under -race): once a healthy fit is live no clamped
// fit replaces it, and every accepted install, and only those, counts
// as a refresh.
func TestInstallConcurrent(t *testing.T) {
	m := NewManager("")
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := &Profile{Samples: 24, Condition: float64(1 + w*50 + i)}
				if (w+i)%2 == 1 {
					p.Clamped = "compute_ns_per_cycle"
				}
				err := m.install(p)
				switch {
				case err == nil:
					accepted.Add(1)
				case p.Clamped == "" || !errors.Is(err, errDegenerateFit):
					t.Error(err)
				}
				if p.Clamped == "" && m.Profile().Clamped != "" {
					t.Error("a clamped fit replaced a healthy one")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.CalibStats().Refreshes; got != accepted.Load() {
		t.Fatalf("refreshes %d, accepted installs %d", got, accepted.Load())
	}
	if m.Profile().Clamped != "" {
		t.Fatalf("a clamped fit replaced a healthy one: %+v", m.Profile())
	}
}

// TestManagerStartStop pins the background loop: it refreshes on the
// ticker and stop() halts it (no goroutine leak under -race).
func TestManagerStartStop(t *testing.T) {
	m := NewManager("")
	stop := m.Start(5*time.Millisecond, Quick(), t.Logf)
	deadline := time.Now().Add(10 * time.Second)
	for m.CalibStats().Refreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background refresh never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	n := m.CalibStats().Refreshes
	time.Sleep(30 * time.Millisecond)
	if got := m.CalibStats().Refreshes; got != n {
		t.Fatalf("refreshes kept running after stop: %d -> %d", n, got)
	}
}

// TestManagerLoadCorrupt pins the corrupt-profile startup path: Load
// reports the error and the file lands in quarantine.
func TestManagerLoadCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := ProfilePath(dir)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManager(path)
	if err := m.Load(); err == nil {
		t.Fatal("corrupt profile loaded silently")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, ProfileFile)); err != nil {
		t.Fatalf("corrupt profile not quarantined: %v", err)
	}
}
