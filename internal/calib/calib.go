// Package calib closes the sim-vs-gort loop: it fits the simulated
// machine's cost accounting to measured goroutine-runtime makespans, so
// the deterministic simulator can rank plans in predicted wall-clock
// nanoseconds — the real runtime's ordering — at simulator cost.
//
// The pieces:
//
//   - A Calibrator (Calibrate) runs a small seeded probe suite — random
//     paper-spec loops scheduled at a few (p, k) grid points and
//     iteration counts — through both exec backends, and least-squares
//     fits a linear exec.CostModel (ns per simulated cycle, ns per
//     cross-processor message, ns per iteration of runtime overhead)
//     from the sim accounting to the measured gort makespans.
//   - A Profile wraps the fitted model with its fit quality (residuals,
//     sample count) and provenance, versioned and persisted as JSON
//     beside the disk plan store (codec.go).
//   - A Manager (manager.go) holds the live profile for a serving
//     process, refreshing it from a background goroutine and answering
//     the pipeline.Calibration seam behind `eval.backend=csim`.
//
// The fit is deliberately tiny — four coefficients, tens of
// observations, normal equations — because its job is ordinal, not
// metric: csim only has to rank plans the way gort would. Parallel-plan
// rows and sequential-baseline rows are fitted separately (plan rows
// drive ComputeNsPerCycle / CommNsPerMessage / IterOverheadNs, the
// sequential rows drive SeqNsPerCycle alone): a parallel simulated
// cycle costs channel blocking and scheduler wakeups that a sequential
// cycle does not, and one shared coefficient would split the difference
// and mispredict both.
package calib

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mimdloop/internal/core"
	"mimdloop/internal/exec"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// Profile is one fitted calibration: the cost model plus the evidence
// behind it. It is what persists on disk and what /v1/stats reports on.
type Profile struct {
	// Model is the fitted linear map from sim accounting to nanoseconds.
	Model exec.CostModel `json:"model"`
	// Samples is the number of probe observations the fit saw.
	Samples int `json:"samples"`
	// RMSENs is the root-mean-square fit residual in nanoseconds.
	RMSENs float64 `json:"rmse_ns"`
	// FitError is the mean absolute relative residual (0.10 = probe
	// makespans mispredicted by 10% on average).
	FitError float64 `json:"fit_error"`
	// Clamped lists, comma-separated, the coefficients the fit clamped
	// to zero because the probes pulled them negative: the probe suite
	// could not identify them, and csim then prices that resource at
	// nothing. Empty for a fit that kept every coefficient.
	Clamped string `json:"clamped,omitempty"`
	// Condition estimates the condition number of the column-scaled
	// normal equations over all three plan coefficients (the largest
	// elimination pivot over the smallest). Large values mean the
	// probes barely separate the coefficients. It is reported only.
	Condition float64 `json:"condition,omitempty"`
	// Probes, Trials and Seed echo the calibration configuration.
	Probes int   `json:"probes"`
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed"`
	// GoMaxProcs records the parallelism the probes ran under: a
	// profile fitted on a different processor budget is suspect.
	GoMaxProcs int `json:"gomaxprocs"`
	// CreatedUnixNs is the fit time (UnixNano), the basis of Age.
	CreatedUnixNs int64 `json:"created_unix_ns"`
}

// Age is the time since the profile was fitted.
func (p *Profile) Age() time.Duration {
	return time.Since(time.Unix(0, p.CreatedUnixNs))
}

// Config shapes one calibration pass. The zero value takes defaults
// sized so a full pass costs well under a second.
type Config struct {
	// Probes is the number of distinct seeded random loops (default 3).
	Probes int
	// Trials is the gort trial count per observation (default 3); the
	// fit targets the trial mean.
	Trials int
	// Iterations are the scheduled iteration counts each probe runs at
	// (default {20, 60}) — varying them is what separates per-iteration
	// overhead from per-cycle compute.
	Iterations []int
	// Points are the (p, k) grid cells each probe is scheduled at
	// (default {2,2}, {4,2}, {8,3}) — varying p is what exposes the
	// per-message cost. Unschedulable points are skipped.
	Points []pipeline.Point
	// Seed is the first probe loop's workload seed (default 1);
	// probe i uses Seed+i.
	Seed int64
	// Spec generates the probe loops (default workload.PaperSpec).
	Spec workload.RandomSpec
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.Probes == 0 {
		c.Probes = 3
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	if len(c.Iterations) == 0 {
		c.Iterations = []int{20, 60}
	}
	if len(c.Points) == 0 {
		c.Points = []pipeline.Point{{Processors: 2, CommCost: 2}, {Processors: 4, CommCost: 2}, {Processors: 8, CommCost: 3}}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Spec == (workload.RandomSpec{}) {
		c.Spec = workload.PaperSpec
	}
	return c
}

// Quick is the cheap configuration CLI -quick and smoke tests use: two
// probes, two trials, the extreme grid points. Two iteration counts are
// kept even here — with a single count the iteration column is constant
// and the fit degenerates into pure per-iteration overhead.
func Quick() Config {
	return Config{
		Probes:     2,
		Trials:     2,
		Iterations: []int{15, 45},
		Points:     []pipeline.Point{{Processors: 2, CommCost: 2}, {Processors: 8, CommCost: 2}},
	}
}

// obs is one parallel-plan fit row: x = (sim makespan cycles, messages,
// iterations), y = measured gort nanoseconds.
type obs struct {
	x [3]float64
	y float64
}

// seqObs is one sequential-baseline fit row: x = sequential schedule
// cycles, y = measured sequential nanoseconds.
type seqObs struct {
	x, y float64
}

// Calibrate runs the probe suite and fits a Profile. It resets the gort
// backend's memoized sequential baselines first, so the fit never
// inherits timings from a differently-loaded moment of the host.
func Calibrate(cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	exec.ResetSequentialBaselines()
	var rows []obs
	var seqRows []seqObs
	for i := 0; i < cfg.Probes; i++ {
		seed := cfg.Seed + int64(i)
		g, err := workload.Random(cfg.Spec, seed)
		if err != nil {
			return nil, fmt.Errorf("calib: probe seed %d: %w", seed, err)
		}
		for _, iters := range cfg.Iterations {
			seqRow := false
			for _, pt := range cfg.Points {
				ls, err := core.ScheduleLoop(g, core.Options{Processors: pt.Processors, CommCost: pt.CommCost}, iters)
				if err != nil {
					continue // no pattern at this point; the suite tolerates holes
				}
				progs, err := program.Build(ls.Full)
				if err != nil {
					continue
				}
				sim, err := exec.Sim{}.RunTrials(g, progs, iters, exec.TrialConfig{Trials: 1})
				if err != nil {
					return nil, fmt.Errorf("calib: probe seed %d sim run: %w", seed, err)
				}
				gort, err := exec.Goroutine{}.RunTrials(g, progs, iters, exec.TrialConfig{Trials: cfg.Trials})
				if err != nil {
					return nil, fmt.Errorf("calib: probe seed %d p=%d k=%d gort run: %w",
						seed, pt.Processors, pt.CommCost, err)
				}
				rows = append(rows, obs{
					x: [3]float64{sim.Makespans[0], float64(sim.Messages), float64(iters)},
					y: gort.Mean(),
				})
				if !seqRow {
					// The sequential baseline is an observation of a
					// different runtime — the channel-free interpreter —
					// so it gets its own coefficient rather than a seat
					// in the plan fit. One row per (probe, iterations).
					seqRows = append(seqRows, seqObs{x: sim.Sequential, y: gort.Sequential})
					seqRow = true
				}
			}
		}
	}
	if len(rows) < 4 {
		return nil, fmt.Errorf("calib: only %d plan observations (need >= 4): the probe grid failed to schedule", len(rows))
	}
	p, err := fit(rows)
	if err != nil {
		return nil, err
	}
	p.Model.SeqNsPerCycle = fitSeq(seqRows)
	p.Samples = len(rows) + len(seqRows)
	p.Probes, p.Trials, p.Seed = cfg.Probes, cfg.Trials, cfg.Seed
	p.GoMaxProcs = runtime.GOMAXPROCS(0)
	p.CreatedUnixNs = time.Now().UnixNano()
	return p, nil
}

// coefficientNames are the plan coefficients' wire names, in fit column
// order.
var coefficientNames = [3]string{"compute_ns_per_cycle", "comm_ns_per_message", "iter_overhead_ns"}

// fit least-squares-fits y ≈ x·coef with nonnegative coefficients: an
// unconstrained normal-equations solve, then any negative coefficient
// is clamped out (its column dropped) and the rest refit — negative
// costs would be physically meaningless and could invert rankings.
// Returns a profile holding the plan coefficients, the RMSE and mean
// absolute relative error over the observations, the clamped
// coefficients and the first solve's condition estimate.
func fit(rows []obs) (*Profile, error) {
	p := &Profile{}
	active := [3]bool{true, true, true}
	var coef [3]float64
	var clamped []string
	for {
		c, cond, ok := solveNormal(rows, active)
		if !ok {
			return nil, fmt.Errorf("calib: singular normal equations over %d observations (degenerate probe suite)", len(rows))
		}
		if p.Condition == 0 {
			p.Condition = cond
		}
		refit := false
		for i := range c {
			if active[i] && c[i] < 0 {
				active[i] = false
				refit = true
				clamped = append(clamped, coefficientNames[i])
			}
		}
		if !refit {
			coef = c
			break
		}
		if !active[0] && !active[1] && !active[2] {
			return nil, fmt.Errorf("calib: every fitted coefficient was negative over %d observations", len(rows))
		}
	}
	p.Clamped = strings.Join(clamped, ",")
	var sse, relSum float64
	for _, r := range rows {
		pred := coef[0]*r.x[0] + coef[1]*r.x[1] + coef[2]*r.x[2]
		resid := pred - r.y
		sse += resid * resid
		if r.y > 0 {
			relSum += math.Abs(resid) / r.y
		}
	}
	p.Model = exec.CostModel{ComputeNsPerCycle: coef[0], CommNsPerMessage: coef[1], IterOverheadNs: coef[2]}
	p.RMSENs, p.FitError = math.Sqrt(sse/float64(len(rows))), relSum/float64(len(rows))
	return p, nil
}

// fitSeq fits the sequential scale alone: d = Σxy/Σx², the 1-D least
// squares through the origin. Sequential rows have one regressor, so no
// normal-equations machinery; a degenerate suite yields 0 (csim then
// reports a zero sequential baseline rather than a fabricated one).
func fitSeq(rows []seqObs) float64 {
	var xy, xx float64
	for _, r := range rows {
		xy += r.x * r.y
		xx += r.x * r.x
	}
	if xx == 0 || xy < 0 {
		return 0
	}
	return xy / xx
}

// solveNormal solves the normal equations AᵀA c = Aᵀy over the active
// columns by Gaussian elimination with partial pivoting. The columns are
// scaled to unit norm first, so the pivots are comparable across
// columns whose units differ by orders of magnitude (cycles, messages,
// iterations): cond, the largest pivot over the smallest, estimates the
// condition number, and ok is false when a pivot vanishes (the system
// is numerically singular).
func solveNormal(rows []obs, active [3]bool) (coef [3]float64, cond float64, ok bool) {
	var cols []int
	for i, on := range active {
		if on {
			cols = append(cols, i)
		}
	}
	n := len(cols)
	a := make([][]float64, n) // augmented [AᵀA | Aᵀy]
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for _, r := range rows {
		for i, ci := range cols {
			for j, cj := range cols {
				a[i][j] += r.x[ci] * r.x[cj]
			}
			a[i][n] += r.x[ci] * r.y
		}
	}
	scale := make([]float64, n)
	for i := range scale {
		if scale[i] = math.Sqrt(a[i][i]); scale[i] == 0 {
			return [3]float64{}, 0, false
		}
	}
	for i := range a {
		for j := range a[i] {
			a[i][j] /= scale[i]
			if j < n {
				a[i][j] /= scale[j]
			}
		}
	}
	minPivot, maxPivot := math.Inf(1), 0.0
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		piv := math.Abs(a[col][col])
		if piv < 1e-12 {
			return [3]float64{}, 0, false
		}
		minPivot, maxPivot = math.Min(minPivot, piv), math.Max(maxPivot, piv)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for i, ci := range cols {
		v := a[i][n] / a[i][i] / scale[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return [3]float64{}, 0, false
		}
		coef[ci] = v
	}
	return coef, maxPivot / minPivot, true
}
