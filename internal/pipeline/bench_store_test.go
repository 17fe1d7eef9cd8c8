package pipeline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"mimdloop/internal/cluster/clustertest"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/store"
	"mimdloop/internal/workload"
)

// BenchmarkServeCold sends a never-seen plan key per iteration through
// Server.ServeHTTP on a disk-backed tiered store, as `loopsched serve
// -store` stacks it: compile, schedule, lower, render, encode, fsync'd
// disk write and the reply, for Table 1's first loop at 250 iterations
// (3,000 placements). Each iteration renames the loop's arrays, so the
// graph — and with it the key — is new while the work stays the same.
// It lives in the external test package because internal/store imports
// this one.
func BenchmarkServeCold(b *testing.B) {
	suite, err := workload.Suite()
	if err != nil {
		b.Fatal(err)
	}
	src, err := clustertest.LoopSource("table1", suite[0])
	if err != nil {
		b.Fatal(err)
	}
	array := regexp.MustCompile(`\bn(\d+)\[`)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		renamed := array.ReplaceAllString(src, fmt.Sprintf("c%dn${1}[", i))
		if bodies[i], err = json.Marshal(pipeline.ScheduleRequest{Source: renamed, Iterations: 250}); err != nil {
			b.Fatal(err)
		}
	}
	disk, err := store.Open(store.DiskConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	p := pipeline.New(pipeline.Config{Store: store.NewTiered(pipeline.NewMemStore(pipeline.MemConfig{MaxEntries: 128}), disk)})
	defer p.Close()
	srv := pipeline.NewServer(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i])))
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cache_hit":false`)) {
			b.Fatalf("request %d: status %d: %.200s", i, w.Code, w.Body)
		}
	}
}
