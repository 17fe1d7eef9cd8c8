package calib

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mimdloop/internal/exec"
	"mimdloop/internal/pipeline"
)

// Manager holds a serving process's live calibration profile: an atomic
// pointer the csim path reads on every tune, a refresh entry point the
// serve loop calls on a timer, and optional persistence so a restarted
// server resumes calibrated instead of degrading to raw sim until its
// first refresh. It implements pipeline.Calibration.
type Manager struct {
	// path, when non-empty, is where profiles persist (normally
	// calib.ProfilePath of the disk plan store's directory).
	path      string
	profile   atomic.Pointer[Profile]
	refreshes atomic.Uint64
}

// NewManager returns a Manager persisting to path ("" = memory only).
func NewManager(path string) *Manager { return &Manager{path: path} }

// Load installs the persisted profile, if any. A missing file is not an
// error (the manager simply starts unfitted); a corrupt file is
// quarantined by LoadProfile and reported.
func (m *Manager) Load() error {
	if m.path == "" {
		return nil
	}
	p, err := LoadProfile(m.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	m.profile.Store(p)
	return nil
}

// Set installs p as the live profile.
func (m *Manager) Set(p *Profile) { m.profile.Store(p) }

// Profile returns the live profile (nil when unfitted).
func (m *Manager) Profile() *Profile { return m.profile.Load() }

// Model implements pipeline.Calibration.
func (m *Manager) Model() (exec.CostModel, bool) {
	p := m.profile.Load()
	if p == nil {
		return exec.CostModel{}, false
	}
	return p.Model, true
}

// CalibStats implements pipeline.Calibration.
func (m *Manager) CalibStats() pipeline.CalibStats {
	cs := pipeline.CalibStats{Refreshes: m.refreshes.Load()}
	if p := m.profile.Load(); p != nil {
		cs.Present = true
		cs.AgeSeconds = p.Age().Seconds()
		cs.Samples = p.Samples
		cs.RMSENs = p.RMSENs
		cs.FitError = p.FitError
		cs.Clamped = p.Clamped
		cs.Condition = p.Condition
		cs.Model = p.Model
	}
	return cs
}

// Refresh runs one calibration pass, installs the result, persists it
// when the manager has a path, and counts the refresh. A failed pass, or
// a degenerate fit that would replace a healthy one, leaves the previous
// profile live.
func (m *Manager) Refresh(cfg Config) (*Profile, error) {
	p, err := Calibrate(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.install(p); err != nil {
		return nil, err
	}
	if m.path != "" {
		if err := SaveProfile(m.path, p); err != nil {
			return p, err
		}
	}
	return p, nil
}

// errDegenerateFit marks a refit refused because it clamped a
// coefficient to zero while the live fit had clamped none.
var errDegenerateFit = errors.New("calib: refit clamped a coefficient the live profile fitted")

// install makes p the live profile and counts the refresh, unless p
// clamped a coefficient to zero and the live profile clamped none: a
// fit that could not identify a cost never replaces one that could.
// The condition estimate is reported, never enforced.
func (m *Manager) install(p *Profile) error {
	for {
		live := m.profile.Load()
		if live != nil && live.Clamped == "" && p.Clamped != "" {
			return fmt.Errorf("%w (clamped %s to zero); keeping the live profile", errDegenerateFit, p.Clamped)
		}
		if m.profile.CompareAndSwap(live, p) {
			m.refreshes.Add(1)
			return nil
		}
	}
}

// Start refreshes every interval from a background goroutine until the
// returned stop function is called (stop waits for an in-flight pass to
// finish). Failures go to logf and the previous profile stays live.
func (m *Manager) Start(interval time.Duration, cfg Config, logf func(format string, args ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if p, err := m.Refresh(cfg); err != nil {
					logf("calibration refresh failed: %v", err)
				} else {
					logf("calibration refreshed: %.2f ns/cycle, %.0f ns/message, %.0f ns/iteration (fit error %.1f%% over %d samples)",
						p.Model.ComputeNsPerCycle, p.Model.CommNsPerMessage, p.Model.IterOverheadNs,
						p.FitError*100, p.Samples)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
