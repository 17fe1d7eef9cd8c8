package store

import (
	"bytes"
	"os"
	"testing"

	"mimdloop/internal/pipeline"
)

// FuzzPutRecord feeds arbitrary bytes to DiskStore.PutRecord under one
// fixed key, the figure 7 plan's. A refused record must leave nothing
// behind: no temp file, no record file, no index entry. An accepted
// record must come back from Get under that key as the plan PutRecord
// decoded.
//
//	go test -run '^$' -fuzz FuzzPutRecord -fuzztime 20s -fuzzminimizetime 2s ./internal/store
func FuzzPutRecord(f *testing.F) {
	key, plan := buildPlan(f, 20)
	rec, err := pipeline.EncodePlan(plan)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(rec), len(rec) - 1, len(rec) / 2, len(rec) / 4, 16, 1, 0} {
		f.Add(rec[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Open(DiskConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		put, err := d.PutRecord(key, bytes.NewReader(data))
		if err != nil {
			if s := d.Stats(); d.Len() != 0 || s.Entries != 0 {
				t.Fatalf("refused record left an index entry: %+v", s)
			}
			entries, err := os.ReadDir(d.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != quarantineDir {
					t.Fatalf("refused record left %s behind", e.Name())
				}
			}
			return
		}
		got, ok := d.Get(key)
		if !ok {
			t.Fatal("accepted record is not servable under its key")
		}
		if got.GraphHash != put.GraphHash || got.Rate() != put.Rate() || got.Iterations != put.Iterations {
			t.Fatalf("Get returned a different plan: %+v, PutRecord decoded %+v", got, put)
		}
	})
}
