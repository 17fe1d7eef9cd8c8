package pipeline

import "mimdloop/internal/exec"

// Calibration is the seam serve mode uses to plug a live fitted cost
// model into the server: any measured evaluation requesting the "csim"
// backend with no model of its own gets the provider's current fit
// substituted, and /v1/stats reports the profile's health. Like
// ScheduleForwarder, the interface is declared here rather than in the
// implementing package because internal/calib imports pipeline (for
// this stats type); the standard implementation is calib.Manager, which
// also persists profiles beside the disk plan store and refreshes them
// from a background goroutine under `loopsched serve -calibrate-every`.
//
// Implementations must be safe for concurrent use: Model is read on
// every csim tune while a refresh may be storing a new fit.
type Calibration interface {
	// Model returns the current fitted cost model, false when no
	// profile has been loaded or fitted yet.
	Model() (exec.CostModel, bool)
	// CalibStats snapshots the profile's health for /v1/stats.
	CalibStats() CalibStats
}

// CalibStats is the "calib" block of /v1/stats: the age and fit quality
// of the profile csim evaluations are being scaled by, and how many
// background refreshes have replaced it since startup.
type CalibStats struct {
	// Present reports whether a fitted profile is live (false: csim
	// requests degrade to raw sim).
	Present bool `json:"present"`
	// AgeSeconds is the time since the live profile was fitted.
	AgeSeconds float64 `json:"age_seconds"`
	// Samples is the number of probe observations behind the fit.
	Samples int `json:"samples"`
	// RMSENs is the fit's root-mean-square residual in nanoseconds.
	RMSENs float64 `json:"rmse_ns"`
	// FitError is the mean absolute relative residual (0.10 = the model
	// mispredicts probe makespans by 10% on average).
	FitError float64 `json:"fit_error"`
	// Clamped lists, comma-separated, the coefficients the fit clamped
	// to zero because the probes could not identify them (omitted when
	// none were).
	Clamped string `json:"clamped,omitempty"`
	// Condition estimates the condition number of the fit's column-scaled
	// normal equations; large values mean the probes barely separate the
	// coefficients.
	Condition float64 `json:"condition,omitempty"`
	// Refreshes counts successful profile replacements since startup.
	Refreshes uint64 `json:"refreshes"`
	// Model echoes the live coefficients.
	Model exec.CostModel `json:"model"`
}
