package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mimdloop/internal/pipeline"
)

// TestDiskStoreQuarantinesOutOfRangeIndex: a record whose instruction or
// placement names a node outside its graph would panic the first
// evaluation that ran it, so the disk tier quarantines it and serves a
// miss.
func TestDiskStoreQuarantinesOutOfRangeIndex(t *testing.T) {
	for name, field := range map[string]*regexp.Regexp{
		"instruction": regexp.MustCompile(`"Kind":0,"Node":\d+`),
		"placement":   regexp.MustCompile(`\{"node":\d+`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(DiskConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			key, plan := buildPlan(t, 10)
			d.Put(key, plan)
			file := filepath.Join(dir, fileName(key))
			rec, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			loc := field.FindIndex(rec)
			if loc == nil {
				t.Fatalf("record has no %s node field", name)
			}
			old := string(rec[loc[0]:loc[1]])
			bad := []byte(string(rec[:loc[0]]) + old[:strings.LastIndex(old, ":")+1] + "99" + string(rec[loc[1]:]))
			if err := os.WriteFile(file, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get(key); ok {
				t.Fatal("record naming node 99 of 5 was served")
			}
			if s := d.Stats(); s.Errors != 1 || s.Misses != 1 || s.Entries != 0 {
				t.Fatalf("stats after the bad read: %+v", s)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, fileName(key))); err != nil {
				t.Fatalf("record not quarantined: %v", err)
			}
		})
	}
}

// TestDiskStoreConcurrentAccess runs Get, OpenRecord, Put, Delete and GC
// from many goroutines on overlapping keys (run under -race in CI).
// Reads and decodes, and writes and fsyncs, happen outside the store's
// lock, so this checks that they still agree with the index: every hit
// is the requested plan with its exact schedule bytes, every opened
// record is exactly as long as the size reported with it — puts
// alternate between a bare and a measured plan, so a key's record
// changes size as it is replaced — no valid record is ever quarantined,
// and afterwards the index matches the directory.
func TestDiskStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	const keys = 3
	type entry struct {
		key   string
		plans [2]*pipeline.Plan // bare, measured: same key, different record sizes
		sched []byte
	}
	var entries []entry
	for n := 20; n < 20+keys; n++ {
		key, bare := buildPlan(t, n)
		_, measured := buildPlan(t, n)
		measured.SetMeasured(&pipeline.MeasuredStats{Backend: "gort", Trials: 3, SpMean: 12.5})
		sched, err := bare.ScheduleJSON()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{key, [2]*pipeline.Plan{bare, measured}, sched})
	}
	rec, err := pipeline.EncodePlan(entries[0].plans[0])
	if err != nil {
		t.Fatal(err)
	}
	// A budget of two and a half records keeps GC evicting throughout.
	d, err := Open(DiskConfig{Dir: dir, MaxBytes: int64(5 * len(rec) / 2)})
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 250
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				e := entries[(w+r)%keys]
				iters := e.plans[0].Iterations
				switch (w*rounds + r) % 5 {
				case 0, 1:
					d.Put(e.key, e.plans[r%2])
				case 2:
					if got, ok := d.Get(e.key); ok {
						sched, err := got.ScheduleJSON()
						if err != nil || !bytes.Equal(sched, e.sched) || got.Iterations != iters {
							errs <- fmt.Errorf("Get(%d iterations) served a different plan", iters)
							return
						}
					}
				case 3:
					if rc, size, err := d.OpenRecord(e.key); err == nil {
						n, err := io.Copy(io.Discard, rc)
						rc.Close()
						if err != nil || n != size {
							errs <- fmt.Errorf("OpenRecord(%d iterations) reported %d bytes, read %d (%v)", iters, size, n, err)
							return
						}
					}
				case 4:
					if r%2 == 0 {
						d.Delete(e.key)
					} else {
						d.GC()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if s := d.Stats(); s.Errors != 0 {
		t.Fatalf("valid records counted as errors: %+v", s)
	}
	if q, _ := os.ReadDir(filepath.Join(dir, quarantineDir)); len(q) != 0 {
		t.Fatalf("%d valid records quarantined", len(q))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+planExt))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if len(files) != d.Len() || onDisk != d.Bytes() {
		t.Fatalf("index holds %d records of %d bytes, directory %d of %d", d.Len(), d.Bytes(), len(files), onDisk)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
