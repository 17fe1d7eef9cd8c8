package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/workload"
)

var fig7Opts = core.Options{Processors: 2, CommCost: 2}

// buildPlan builds one uncached Figure 7 plan and its canonical store
// key.
func buildPlan(t testing.TB, n int) (string, *pipeline.Plan) {
	t.Helper()
	g := workload.Figure7().Graph
	plan, _, err := pipeline.New(pipeline.Config{DisableCache: true}).Schedule(g, fig7Opts, n)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.PlanKey(g.Fingerprint(), fig7Opts, n), plan
}

func TestDiskStoreBasics(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, plan := buildPlan(t, 20)

	if _, ok := d.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	d.Put(key, plan)
	if d.Len() != 1 || d.Bytes() <= 0 {
		t.Fatalf("Len=%d Bytes=%d", d.Len(), d.Bytes())
	}
	got, ok := d.Get(key)
	if !ok {
		t.Fatal("stored plan not found")
	}
	if got.Rate() != plan.Rate() || got.GraphHash != plan.GraphHash {
		t.Fatalf("loaded plan differs: %+v", got)
	}

	// Listing decodes the stored record.
	infos := d.Plans()
	if len(infos) != 1 || infos[0].Key != key || infos[0].Rate != plan.Rate() {
		t.Fatalf("plans = %+v", infos)
	}

	s := d.Stats()
	if s.Kind != "disk" || s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}

	d.Delete(key)
	if _, ok := d.Get(key); ok || d.Len() != 0 || d.Bytes() != 0 {
		t.Fatalf("after Delete: Len=%d Bytes=%d", d.Len(), d.Bytes())
	}

	d.Put(key, plan)
	if err := d.Flush(); err != nil || d.Len() != 0 {
		t.Fatalf("Flush: err=%v Len=%d", err, d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(DiskConfig{}); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// TestDiskStoreReopenSeesRecords pins the restart path at the store
// level: a fresh DiskStore over the same directory indexes and serves
// its predecessor's records.
func TestDiskStoreReopenSeesRecords(t *testing.T) {
	dir := t.TempDir()
	d1, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, plan := buildPlan(t, 25)
	d1.Put(key, plan)
	wantJSON, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("reopened store has %d records", d2.Len())
	}
	got, ok := d2.Get(key)
	if !ok {
		t.Fatal("reopened store missed the stored plan")
	}
	gotJSON, err := got.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("schedule JSON differs across restart")
	}
}

// TestDiskStoreQuarantinesCorruption overwrites a record with garbage:
// the store must report a miss, move the file aside (not delete it), and
// keep serving other keys.
func TestDiskStoreQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keyA, planA := buildPlan(t, 20)
	keyB, planB := buildPlan(t, 30)
	d.Put(keyA, planA)
	d.Put(keyB, planB)

	// Corrupt A's record on disk behind the store's back.
	var corrupted string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), planExt) {
			corrupted = de.Name()
			if err := os.WriteFile(filepath.Join(dir, de.Name()), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if corrupted == "" {
		t.Fatal("no plan records on disk")
	}

	// One of the two keys now decodes to garbage; both Gets must be safe
	// and exactly one must be quarantined.
	_, okA := d.Get(keyA)
	_, okB := d.Get(keyB)
	if okA && okB {
		t.Fatal("corrupt record served")
	}
	if s := d.Stats(); s.Errors == 0 {
		t.Fatalf("no error counted: %+v", s)
	}
	if d.Len() != 1 {
		t.Fatalf("store kept %d records, want 1", d.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, corrupted)); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
}

// TestDiskStoreGCBoundsBytes floods a tiny store and checks the byte
// budget holds, oldest records going first.
func TestDiskStoreGCBoundsBytes(t *testing.T) {
	dir := t.TempDir()
	_, probe := buildPlan(t, 20)
	rec, err := pipeline.EncodePlan(probe)
	if err != nil {
		t.Fatal(err)
	}
	// Budget: roughly three records.
	budget := int64(3*len(rec) + len(rec)/2)
	d, err := Open(DiskConfig{Dir: dir, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for n := 20; n < 30; n++ {
		key, plan := buildPlan(t, n)
		d.Put(key, plan)
		keys = append(keys, key)
	}
	if d.Bytes() > budget {
		t.Fatalf("store bytes %d over budget %d", d.Bytes(), budget)
	}
	if s := d.Stats(); s.Evictions == 0 {
		t.Fatalf("no GC evictions: %+v", s)
	}
	// The most recent record survives.
	if _, ok := d.Get(keys[len(keys)-1]); !ok {
		t.Fatal("most recent record was collected")
	}
	// An explicit GC on an already-trimmed store is a no-op.
	if removed, reclaimed := d.GC(); removed != 0 || reclaimed != 0 {
		t.Fatalf("GC removed %d (%d bytes) under budget", removed, reclaimed)
	}
}

// TestTieredPromotesDiskHits checks the read path: a key present only on
// disk is served, counted as a promote, and lands in the memory tier.
func TestTieredPromotesDiskHits(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mem := pipeline.NewMemStore(pipeline.MemConfig{})
	tiered := NewTiered(mem, disk)

	key, plan := buildPlan(t, 40)
	tiered.Put(key, plan)
	if mem.Len() != 1 || disk.Len() != 1 {
		t.Fatalf("write-through: mem=%d disk=%d", mem.Len(), disk.Len())
	}

	// Drop the memory tier (simulating restart or eviction).
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := tiered.Get(key)
	if !ok || got.Rate() != plan.Rate() {
		t.Fatalf("disk-backed Get: ok=%v", ok)
	}
	s := tiered.Stats()
	if s.Kind != "tiered" || s.Promotes != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if mem.Len() != 1 {
		t.Fatal("disk hit not promoted into the memory tier")
	}
	// The next Get is a pure memory hit: no further promotes.
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("promoted key missed")
	}
	if s := tiered.Stats(); s.Promotes != 1 || s.Hits != 2 {
		t.Fatalf("post-promotion stats = %+v", s)
	}

	// Enumeration sees the plan exactly once despite both tiers holding it.
	if infos := tiered.Plans(); len(infos) != 1 || infos[0].Key != key {
		t.Fatalf("plans = %+v", infos)
	}

	tiered.Delete(key)
	if mem.Len() != 0 || disk.Len() != 0 {
		t.Fatal("Delete left a tier populated")
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
}

// newTieredPipeline builds a serving-shaped pipeline: memory over disk
// at dir.
func newTieredPipeline(t *testing.T, dir string) *pipeline.Pipeline {
	t.Helper()
	disk, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.New(pipeline.Config{
		Store: NewTiered(pipeline.NewMemStore(pipeline.MemConfig{}), disk),
	})
}

// TestRestartServesFromDiskWithoutRescheduling is the acceptance test
// for the storage redesign: schedule and auto-tune against a tiered
// store, then construct a fresh pipeline over the same directory and
// replay the same requests. Every one must be served as a store hit
// with zero rescheduling (store counters prove it) and byte-identical
// plan JSON.
func TestRestartServesFromDiskWithoutRescheduling(t *testing.T) {
	dir := t.TempDir()
	g := workload.Figure7().Graph
	lfk := workload.Livermore18().Graph

	requests := []struct {
		opts core.Options
		n    int
	}{
		{core.Options{Processors: 2, CommCost: 2}, 100},
		{core.Options{Processors: 3, CommCost: 1}, 60},
		{core.Options{Processors: 2, CommCost: 2, FoldNonCyclic: true}, 80},
	}

	p1 := newTieredPipeline(t, dir)
	wantJSON := make(map[int][]byte)
	for i, req := range requests {
		plan, hit, err := p1.Schedule(g, req.opts, req.n)
		if err != nil || hit {
			t.Fatalf("request %d: hit=%v err=%v", i, hit, err)
		}
		js, err := plan.ScheduleJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON[i] = js
	}
	// An AutoTune sweep: every grid point's winner and loser plans land
	// in the store too.
	tuned1, err := p1.AutoTune(lfk, 50, pipeline.TuneOptions{
		Processors: []int{1, 2, 3},
		CommCosts:  []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := p1.Stats().Computes; c == 0 {
		t.Fatal("first process computed nothing")
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh pipeline over the same directory: cold memory, warm disk.
	p2 := newTieredPipeline(t, dir)
	for i, req := range requests {
		plan, hit, err := p2.Schedule(g, req.opts, req.n)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("request %d rescheduled after restart", i)
		}
		js, err := plan.ScheduleJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, wantJSON[i]) {
			t.Fatalf("request %d: plan JSON not byte-identical across restart", i)
		}
	}
	// The same tune replays entirely from disk and picks the same winner.
	tuned2, err := p2.AutoTune(lfk, 50, pipeline.TuneOptions{
		Processors: []int{1, 2, 3},
		CommCosts:  []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned2.Best.Point != tuned1.Best.Point || tuned2.Best.Rate != tuned1.Best.Rate {
		t.Fatalf("tune winner changed across restart: %+v vs %+v", tuned2.Best.Point, tuned1.Best.Point)
	}

	s := p2.Stats()
	if s.Computes != 0 {
		t.Fatalf("restarted pipeline rescheduled %d plans", s.Computes)
	}
	if s.Misses != 0 {
		t.Fatalf("restarted pipeline missed %d requests", s.Misses)
	}
	disk, ok := s.Store.Tier("disk")
	if !ok || disk.Hits == 0 {
		t.Fatalf("no disk-tier hits recorded: %+v", s.Store)
	}
	if s.Store.Promotes == 0 {
		t.Fatalf("no promotions recorded: %+v", s.Store)
	}
	// Promotion means repeat requests stop touching the disk tier.
	before, _ := p2.Stats().Store.Tier("disk")
	if _, hit, err := p2.Schedule(g, requests[0].opts, requests[0].n); err != nil || !hit {
		t.Fatalf("repeat request: hit=%v err=%v", hit, err)
	}
	after, _ := p2.Stats().Store.Tier("disk")
	if after.Hits != before.Hits {
		t.Fatal("repeat request read the disk tier despite promotion")
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMeasuredAnnotationPersists: a measured evaluation re-puts the
// annotated plan through the tiered store, so the on-disk v2 record
// carries the measured block and a restarted process reloads it.
func TestMeasuredAnnotationPersists(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Config{
		Store: NewTiered(pipeline.NewMemStore(pipeline.MemConfig{}), disk),
	})
	g := workload.Figure7().Graph
	res, err := p.AutoTune(g, 50, pipeline.TuneOptions{
		Processors: []int{2},
		CommCosts:  []int{2},
		Evaluator:  &pipeline.MeasuredEvaluator{Trials: 3, Fluct: 3, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Best.Score.Measured
	if want == nil {
		t.Fatal("tune returned no measured score")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory serves the measurement.
	disk2, err := Open(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	key := pipeline.PlanKey(g.Fingerprint(), core.Options{Processors: 2, CommCost: 2}, 50)
	plan, ok := disk2.Get(key)
	if !ok {
		t.Fatal("tuned plan not on disk")
	}
	got := plan.Measured()
	if got == nil {
		t.Fatal("reloaded plan lost its measured annotation")
	}
	if *got != *want {
		t.Fatalf("measured annotation drifted across restart: %+v vs %+v", got, want)
	}
}

// TestDiskStoreServesV4Records: a disk store over a directory of the
// records the version-4 encoder wrote (internal/pipeline/testdata)
// serves /v1/schedule from them — the same schedule bytes, the
// annotations kept — and computes nothing.
func TestDiskStoreServesV4Records(t *testing.T) {
	dir := t.TempDir()
	records := map[string][]byte{}
	for _, name := range []string{"v4-figure7-n20.json", "v4-streams-grain4-n24.json", "v4-figure7-sim-gort-n10.json"} {
		rec, err := os.ReadFile(filepath.Join("..", "pipeline", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := pipeline.DecodePlan(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, fileName(key)), rec, 0o644); err != nil {
			t.Fatal(err)
		}
		records[name] = rec
	}
	streams := "loop streams(N = 24) {\n" +
		"    s0n0[i] = s0n0[i-1]\n" +
		"    s0n1[i] = s0n1[i-1] + s0n0[i]\n" +
		"    s0n2[i] = s0n2[i-1] + s0n1[i]\n" +
		"    s0n3[i] = s0n3[i-1] + s0n2[i]\n" +
		"}\n"
	p := newTieredPipeline(t, dir)
	defer p.Close()
	srv := pipeline.NewServer(p)
	for name, req := range map[string]string{
		"v4-figure7-n20.json":          fmt.Sprintf(`{"source": %q, "processors": 2, "iterations": 20}`, workload.Figure7Source),
		"v4-streams-grain4-n24.json":   fmt.Sprintf(`{"source": %q, "processors": 2, "iterations": 24, "grain": 4}`, streams),
		"v4-figure7-sim-gort-n10.json": fmt.Sprintf(`{"source": %q, "processors": 2, "iterations": 10}`, workload.Figure7Source),
	} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(req)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", name, w.Code, w.Body)
		}
		var reply, rec map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(records[name], &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply["schedule"], rec["schedule"]) || !bytes.Equal(reply["measured_by"], rec["measured_by"]) {
			t.Fatalf("%s: the reply's schedule or annotations differ from the record's", name)
		}
	}
	if s := p.Stats(); s.Computes != 0 || s.Hits != 3 {
		t.Fatalf("serving the version-4 records: %+v", s)
	}
}

// TestDiskRecordRoundTrip covers the raw-record pair behind the
// streaming paths: OpenRecord hands back exactly the encoded bytes Put
// persisted (sized to match), and PutRecord streams those bytes into a
// fresh store through full decode validation — so a record can travel
// disk -> socket -> peer disk without ever being re-encoded.
func TestDiskRecordRoundTrip(t *testing.T) {
	d, err := Open(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	key, plan := buildPlan(t, 20)
	d.Put(key, plan)
	want, err := pipeline.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	rc, size, err := d.OpenRecord(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || size != int64(len(want)) {
		t.Fatalf("OpenRecord returned %d bytes (size %d), want %d", len(got), size, len(want))
	}
	if _, _, err := d.OpenRecord(key + "x"); err == nil {
		t.Fatal("OpenRecord succeeded for an unknown key")
	}

	// The streamed write side: a second store ingests the raw record.
	d2, err := Open(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	filled, err := d2.PutRecord(key, bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if filled.Rate() != plan.Rate() || filled.GraphHash != plan.GraphHash {
		t.Fatalf("PutRecord decoded a different plan: %+v", filled)
	}
	rc, _, err = d2.OpenRecord(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("record bytes changed across a streamed fill")
	}
	if loaded, ok := d2.Get(key); !ok || loaded.Rate() != plan.Rate() {
		t.Fatalf("filled record not servable: ok=%v", ok)
	}

	// Invalid fills never enter the store: a key mismatch and raw
	// garbage both error out, leave no record, and count as errors.
	d3, err := Open(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d3.PutRecord(key+"x", bytes.NewReader(want)); err == nil {
		t.Fatal("PutRecord accepted a record under the wrong key")
	}
	if _, err := d3.PutRecord(key, strings.NewReader("not a record")); err == nil {
		t.Fatal("PutRecord accepted garbage")
	}
	if s := d3.Stats(); s.Entries != 0 || s.Errors != 2 {
		t.Fatalf("rejected fills left state behind: %+v", s)
	}
	if names, err := filepath.Glob(filepath.Join(d3.dir, "*"+planExt)); err != nil || len(names) != 0 {
		t.Fatalf("rejected fills left files behind: %v %v", names, err)
	}
}

// TestServePlanRecordStreamsFromDisk is the end-to-end record-streaming
// test over a real disk tier: GET /v1/plans/{fp}?key=... streams the
// content-addressed file with an exact Content-Length, on a warm
// process (hit) and on a restarted one whose memory tier is cold — and
// the restarted serve decodes nothing (the bytes go file -> socket).
func TestServePlanRecordStreamsFromDisk(t *testing.T) {
	dir := t.TempDir()
	g := workload.Figure7().Graph
	fp := g.Fingerprint()
	key := pipeline.PlanKey(fp, fig7Opts, 100)
	target := "/v1/plans/" + fp + "?key=" + url.QueryEscape(key)
	body := fmt.Sprintf(`{"source": %q, "processors": 2}`, workload.Figure7Source)

	p1 := newTieredPipeline(t, dir)
	srv1 := pipeline.NewServer(p1)
	rec := httptest.NewRecorder()
	srv1.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d: %.200s", rec.Code, rec.Body)
	}

	get := func(srv *pipeline.Server) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET record: status %d: %.200s", rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte record reply", cl, rec.Body.Len())
		}
		return rec
	}
	warm := get(srv1)
	plan, ok := p1.Store().Get(key)
	if !ok {
		t.Fatal("scheduled plan not in the store")
	}
	want, err := pipeline.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.Body.Bytes(), append(want, '\n')) {
		t.Fatal("streamed record differs from the encoded plan")
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: cold memory, warm disk. The record streams straight off
	// the file — byte-identical, zero rescheduling, zero decodes (a
	// disk Get would have decoded; the disk hit here is OpenRecord).
	p2 := newTieredPipeline(t, dir)
	srv2 := pipeline.NewServer(p2)
	cold := get(srv2)
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("record bytes changed across restart")
	}
	if s := p2.Stats(); s.Computes != 0 {
		t.Fatalf("restarted serve rescheduled %d plans", s.Computes)
	}
	disk, ok := p2.Stats().Store.Tier("disk")
	if !ok || disk.Hits != 1 {
		t.Fatalf("cold record serve did not hit the disk tier once: %+v", disk)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}
