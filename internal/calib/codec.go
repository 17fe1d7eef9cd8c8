package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Profile persistence: one JSON record per host, written atomically
// beside the disk plan store so a restarted server resumes calibrated.
// The record is versioned exactly like the plan codec —
//
// Version history:
//
//	1: initial record — format/version header wrapping the Profile
//	   (fitted exec.CostModel, fit residuals, provenance).
//
// Records from a newer build (or an unknown format) are rejected with
// instructions rather than half-read; a file that fails to decode is
// moved aside into quarantineDir (never deleted — evidence beats
// convenience), mirroring the DiskStore conventions.
const (
	// ProfileFormat names the record type.
	ProfileFormat = "mimdloop/calib"
	// ProfileVersion is what this build writes.
	ProfileVersion = 1
	// profileMinVersion is the oldest version this build still reads.
	profileMinVersion = 1
	// ProfileFile is the record's file name inside a store directory.
	ProfileFile = "calib.profile.json"

	tmpPrefix     = ".tmp-"
	quarantineDir = "quarantine"
)

// profileRecord is the on-disk envelope.
type profileRecord struct {
	Format  string  `json:"format"`
	Version int     `json:"version"`
	Profile Profile `json:"profile"`
}

// ProfilePath is the canonical profile location inside a store
// directory (the disk plan store's dir in serve mode).
func ProfilePath(dir string) string { return filepath.Join(dir, ProfileFile) }

// EncodeProfile renders the versioned record. Encoding is
// deterministic: the same profile always yields the same bytes.
func EncodeProfile(p *Profile) ([]byte, error) {
	data, err := json.MarshalIndent(profileRecord{
		Format:  ProfileFormat,
		Version: ProfileVersion,
		Profile: *p,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("calib: encode profile: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeProfile parses and validates a record.
func DecodeProfile(data []byte) (*Profile, error) {
	var rec profileRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("calib: profile record: %w", err)
	}
	if rec.Format != ProfileFormat {
		return nil, fmt.Errorf("calib: record format %q, want %q", rec.Format, ProfileFormat)
	}
	if rec.Version < profileMinVersion || rec.Version > ProfileVersion {
		return nil, fmt.Errorf(
			"calib: profile version %d outside [%d, %d] readable by this build: regenerate it with `loopsched calibrate` — and if you changed the record shape, bump ProfileVersion, extend the version history above, and note the break in docs/API.md",
			rec.Version, profileMinVersion, ProfileVersion)
	}
	p := rec.Profile
	for name, v := range map[string]float64{
		"compute_ns_per_cycle": p.Model.ComputeNsPerCycle,
		"comm_ns_per_message":  p.Model.CommNsPerMessage,
		"iter_overhead_ns":     p.Model.IterOverheadNs,
		"seq_ns_per_cycle":     p.Model.SeqNsPerCycle,
		"rmse_ns":              p.RMSENs,
		"fit_error":            p.FitError,
		"condition":            p.Condition,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("calib: profile field %s = %v, want finite and >= 0", name, v)
		}
	}
	if p.Samples < 4 {
		return nil, fmt.Errorf("calib: profile fitted on %d samples, want >= 4", p.Samples)
	}
	return &p, nil
}

// SaveProfile writes the record atomically (temp file in the target
// directory, fsync, rename), the DiskStore write protocol: a crashed
// write leaves the previous profile intact.
func SaveProfile(path string, p *Profile) error {
	data, err := EncodeProfile(p)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("calib: save profile: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"profile-")
	if err != nil {
		return fmt.Errorf("calib: save profile: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("calib: save profile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("calib: save profile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("calib: save profile: %w", err)
	}
	return nil
}

// LoadProfile reads and decodes path. A missing file returns an error
// satisfying os.IsNotExist (the caller's "no profile yet" case); a file
// that fails to decode is quarantined and reported.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := DecodeProfile(data)
	if err != nil {
		quarantine(path)
		return nil, fmt.Errorf("calib: %s quarantined: %w", filepath.Base(path), err)
	}
	return p, nil
}

// quarantine moves a corrupt record aside (DiskStore conventions: into
// quarantineDir next to the record, delete only if even that fails).
func quarantine(path string) {
	dir := filepath.Join(filepath.Dir(path), quarantineDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		os.Remove(path)
		return
	}
	if err := os.Rename(path, filepath.Join(dir, filepath.Base(path))); err != nil {
		os.Remove(path)
	}
}
