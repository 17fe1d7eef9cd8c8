package calib

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mimdloop/internal/exec"
)

func sampleProfile() *Profile {
	return &Profile{
		Model:         exec.CostModel{ComputeNsPerCycle: 3.25, CommNsPerMessage: 1100, IterOverheadNs: 240},
		Samples:       24,
		RMSENs:        5200.5,
		FitError:      0.12,
		Probes:        3,
		Trials:        3,
		Seed:          1,
		GoMaxProcs:    4,
		CreatedUnixNs: 1700000000000000000,
	}
}

// TestProfileCodecRoundTrip pins the codec: decode(encode(p)) preserves
// every field, and re-encoding is byte-identical — the property that
// makes persisted profiles diff- and fingerprint-stable.
func TestProfileCodecRoundTrip(t *testing.T) {
	p := sampleProfile()
	data, err := EncodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, p)
	}
	again, err := EncodeProfile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode not byte-identical:\n%s\nvs\n%s", data, again)
	}
	for _, fragment := range []string{ProfileFormat, `"version": 1`, `"compute_ns_per_cycle"`} {
		if !bytes.Contains(data, []byte(fragment)) {
			t.Errorf("encoded record missing %q:\n%s", fragment, data)
		}
	}
	// A profile with no guard findings encodes without the guard's keys,
	// exactly as records written before the guard; one with findings
	// round-trips them.
	for _, key := range []string{`"clamped"`, `"condition"`} {
		if bytes.Contains(data, []byte(key)) {
			t.Errorf("guard-free profile encodes %s:\n%s", key, data)
		}
	}
	p.Clamped, p.Condition = "comm_ns_per_message,iter_overhead_ns", 1234.5
	if data, err = EncodeProfile(p); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeProfile(data); err != nil || *got != *p {
		t.Fatalf("guard fields did not round-trip: %v\n%+v\n%s", err, got, data)
	}
}

// TestProfileCodecRejectsVersions pins the version gate: records from a
// newer build (or an alien format) are refused with regeneration and
// version-bump instructions, never half-read.
func TestProfileCodecRejectsVersions(t *testing.T) {
	p := sampleProfile()
	data, err := EncodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	_, err = DecodeProfile(future)
	if err == nil {
		t.Fatal("future-version record accepted")
	}
	for _, want := range []string{"loopsched calibrate", "bump ProfileVersion"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version error %q does not instruct %q", err, want)
		}
	}
	alien := bytes.Replace(data, []byte(ProfileFormat), []byte("mimdloop/plan"), 1)
	if _, err := DecodeProfile(alien); err == nil {
		t.Fatal("alien-format record accepted")
	}
}

// TestProfileCodecRejectsImplausible pins field validation: NaN or
// negative coefficients and starved sample counts are refused.
func TestProfileCodecRejectsImplausible(t *testing.T) {
	for name, mutate := range map[string]func(*Profile){
		"negative comm":  func(p *Profile) { p.Model.CommNsPerMessage = -1 },
		"starved fit":    func(p *Profile) { p.Samples = 2 },
		"negative error": func(p *Profile) { p.FitError = -0.5 },
	} {
		p := sampleProfile()
		mutate(p)
		data, err := EncodeProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeProfile(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestSaveLoadProfile pins persistence: an atomic save loads back
// byte-identically, with no temp files left behind.
func TestSaveLoadProfile(t *testing.T) {
	dir := t.TempDir()
	path := ProfilePath(dir)
	p := sampleProfile()
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("persisted profile drifted: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestLoadProfileQuarantinesCorrupt pins the DiskStore convention: a
// record that fails to decode is moved aside into quarantine/ (kept as
// evidence, not deleted) and the load reports it.
func TestLoadProfileQuarantinesCorrupt(t *testing.T) {
	for name, body := range map[string]string{
		"not json":       "}{",
		"future version": `{"format":"mimdloop/calib","version":99,"profile":{}}`,
	} {
		dir := t.TempDir()
		path := ProfilePath(dir)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadProfile(path); err == nil {
			t.Fatalf("%s: corrupt record loaded", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt record still in place", name)
		}
		q := filepath.Join(dir, quarantineDir, ProfileFile)
		if _, err := os.Stat(q); err != nil {
			t.Errorf("%s: quarantined copy missing: %v", name, err)
		}
	}
}

// TestLoadProfileMissing pins the no-profile case: the error satisfies
// os.IsNotExist so callers can treat it as "start unfitted".
func TestLoadProfileMissing(t *testing.T) {
	_, err := LoadProfile(ProfilePath(t.TempDir()))
	if !os.IsNotExist(err) {
		t.Fatalf("missing profile: %v", err)
	}
}
