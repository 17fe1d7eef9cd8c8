package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// nearCapIterations sizes the streaming tests' request: Figure 7 (5
// nodes) at the iteration cap embeds ~2.3 MB of schedule JSON — over
// the default 1 MiB streaming threshold, so a stock server streams it.
const nearCapIterations = 10_000

// nearCapRequest warms srv with the near-cap Figure 7 request (paying
// the one cold schedule) and returns the body bytes, a rewindable
// reader, and a request wrapping it, mirroring hitRequest.
func nearCapRequest(t testing.TB, srv *Server) ([]byte, *bytes.Reader, *http.Request) {
	t.Helper()
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2, "iterations": %d}`,
		fig7Source, nearCapIterations))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm request: status %d: %.200s", rec.Code, rec.Body)
	}
	rd := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/v1/schedule", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	return body, rd, req
}

// TestStreamedReplyByteIdentical is the streaming lane's correctness
// anchor: the same request served by a streaming server (threshold
// forced tiny) and a buffered one (threshold forced huge) must produce
// byte-identical bodies, on the cold miss and on cache hits alike — the
// envelope split is a transport optimization, never a format change.
func TestStreamedReplyByteIdentical(t *testing.T) {
	streaming := NewServerWith(New(Config{}), ServerConfig{StreamThreshold: 64})
	buffered := NewServerWith(New(Config{}), ServerConfig{StreamThreshold: 1 << 30})
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))

	post := func(srv *Server) (*httptest.ResponseRecorder, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
		}
		return rec, append([]byte(nil), rec.Body.Bytes()...)
	}

	var total uint64
	for i, want := range []string{`"cache_hit":false`, `"cache_hit":true`, `"cache_hit":true`} {
		srec, sbody := post(streaming)
		_, bbody := post(buffered)
		if !bytes.Contains(sbody, []byte(want)) {
			t.Fatalf("request %d: streamed body lacks %s: %.200s", i, want, sbody)
		}
		if !bytes.Equal(sbody, bbody) {
			t.Fatalf("request %d: streamed and buffered bodies differ (%d vs %d bytes)",
				i, len(sbody), len(bbody))
		}
		// The streamed reply carries no Content-Length (it goes out
		// chunked on a real connection); the buffered one is exact.
		if cl := srec.Header().Get("Content-Length"); cl != "" {
			t.Fatalf("request %d: streamed reply set Content-Length %q", i, cl)
		}
		total += uint64(len(sbody))
	}
	if got := streaming.streamed.Load(); got != 3 {
		t.Fatalf("streamed counter = %d, want 3", got)
	}
	if got := streaming.streamBytes.Load(); got != total {
		t.Fatalf("stream_bytes = %d, want %d", got, total)
	}
	if buffered.streamed.Load() != 0 {
		t.Fatal("buffered server counted a streamed reply")
	}
}

// TestStreamedReplyChunkedOnWire drives a streaming server over a real
// HTTP connection: the over-threshold reply must arrive with chunked
// transfer encoding (no Content-Length), parse as the usual response,
// and embed exactly the memoized schedule bytes. An under-threshold
// reply from the same server keeps the framed fast lane.
func TestStreamedReplyChunkedOnWire(t *testing.T) {
	srv := NewServerWith(New(Config{}), ServerConfig{StreamThreshold: 1 << 10})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Over threshold: the 21 KB figure-7 schedule.
	body := fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source)
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	if resp.ContentLength != -1 {
		t.Fatalf("streamed reply has Content-Length %d, want chunked", resp.ContentLength)
	}
	if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("transfer encoding = %v, want [chunked]", resp.TransferEncoding)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("streamed body does not parse: %v", err)
	}
	compiled, err := srv.pipe.Compile(fig7Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, hit, err := srv.pipe.Schedule(compiled.Graph, mustParams(t, []byte(body)), 100)
	if err != nil || !hit {
		t.Fatalf("plan lookup: hit=%v err=%v", hit, err)
	}
	sched, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Schedule, sched) {
		t.Fatal("streamed schedule differs from the memoized ScheduleJSON")
	}

	// Under threshold: a 2-iteration request stays on the framed path.
	small := fmt.Sprintf(`{"source": %q, "processors": 2, "iterations": 2}`, fig7Source)
	resp, err = http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader([]byte(small)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength <= 0 {
		t.Fatalf("small reply: status %d Content-Length %d, want framed", resp.StatusCode, resp.ContentLength)
	}
}

// openerStore wraps a PlanStore with a RecordOpener that serves the
// encoded record from memory, standing in for the disk tier so the
// server's raw-record streaming path is testable without a disk store
// (the disk-backed end-to-end test lives in internal/store).
type openerStore struct {
	PlanStore
	opened int
}

func (o *openerStore) OpenRecord(key string) (io.ReadCloser, int64, error) {
	plan, ok := o.PlanStore.Get(key)
	if !ok {
		return nil, 0, fmt.Errorf("no record for key %s", key)
	}
	rec, err := EncodePlan(plan)
	if err != nil {
		return nil, 0, err
	}
	o.opened++
	return io.NopCloser(bytes.NewReader(rec)), int64(len(rec)), nil
}

// TestServePlanRecordStreaming: GET /v1/plans/{fp}?key=… through a
// RecordOpener store must stream bytes identical to the fallback
// (Get + EncodePlan) path, with an exact Content-Length — the record
// wire format cannot depend on which store tier answered.
func TestServePlanRecordStreaming(t *testing.T) {
	opener := &openerStore{PlanStore: NewMemStore(MemConfig{})}
	streaming := NewServer(New(Config{Store: opener}))
	fallback := NewServer(New(Config{}))

	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))
	var fp string
	for _, srv := range []*Server{streaming, fallback} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule: status %d: %.200s", rec.Code, rec.Body)
		}
		var out ScheduleResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		fp = out.GraphHash
	}
	key := PlanKey(fp, mustParams(t, body), 100)

	get := func(srv *Server) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plans/"+fp+"?key="+url.QueryEscape(key), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET record: status %d: %.200s", rec.Code, rec.Body)
		}
		return rec
	}
	srec, frec := get(streaming), get(fallback)
	if opener.opened != 1 {
		t.Fatalf("OpenRecord called %d times, want 1", opener.opened)
	}
	if !bytes.Equal(srec.Body.Bytes(), frec.Body.Bytes()) {
		t.Fatal("streamed record differs from the encode-path record")
	}
	if cl := srec.Header().Get("Content-Length"); cl != strconv.Itoa(srec.Body.Len()) {
		t.Fatalf("streamed record Content-Length %q, body %d bytes", cl, srec.Body.Len())
	}
	if streaming.streamed.Load() != 1 {
		t.Fatalf("streamed counter = %d, want 1", streaming.streamed.Load())
	}
	if fallback.streamed.Load() != 0 {
		t.Fatal("fallback path counted a streamed reply")
	}
}

// TestStreamedReplyMidMeasurementRace streams near-cap cache hits
// concurrently with measured-annotation generation bumps on the served
// plan. Every reply must parse and embed exactly the plan's memoized
// schedule bytes: the streamed split snapshots its envelope and shares
// the immutable schedule memo, so a measurement landing mid-stream can
// change which annotations a reply carries but can never tear one.
// Run under -race this also proves the split publishes no shared
// mutable state.
func TestStreamedReplyMidMeasurementRace(t *testing.T) {
	srv := NewServer(New(Config{})) // default threshold: near-cap hits stream
	body, _, _ := nearCapRequest(t, srv)

	compiled, err := srv.pipe.Compile(fig7Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, hit, err := srv.pipe.Schedule(compiled.Graph, mustParams(t, body), nearCapIterations)
	if err != nil || !hit {
		t.Fatalf("plan lookup: hit=%v err=%v", hit, err)
	}
	sched, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 4
		requests = 2
		bumps    = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*requests+bumps)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d", rec.Code)
					return
				}
				var out ScheduleResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					errs <- fmt.Errorf("torn streamed reply: %v", err)
					return
				}
				if !bytes.Equal(out.Schedule, sched) {
					errs <- fmt.Errorf("streamed schedule differs from the memo")
					return
				}
			}
		}()
	}
	for b := 0; b < bumps; b++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := srv.pipe.Evaluate(NewMeasuredEvaluator(2, 1, seed), plan); err != nil {
				errs <- err
			}
		}(int64(b + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.streamed.Load(); got < readers*requests {
		t.Fatalf("streamed counter = %d, want >= %d", got, readers*requests)
	}
}

// TestStreamedReplyAllocBytes is the PR's acceptance bar: serving a
// near-cap schedule reply through the streaming lane must allocate at
// least 10x fewer bytes than rendering it into one buffer, because the
// streamed path never materializes the body — only the ~1 KB envelope.
// Both servers share one pipeline (and so one plan); the buffered one
// has its memoized hit body dropped per request so each iteration pays
// the full render, which is what every distinct near-cap plan costs.
func TestStreamedReplyAllocBytes(t *testing.T) {
	pipe := New(Config{})
	streaming := NewServerWith(pipe, ServerConfig{})                        // default: streams over 1 MiB
	buffered := NewServerWith(pipe, ServerConfig{StreamThreshold: 1 << 30}) // never streams
	body, _, _ := nearCapRequest(t, streaming)

	compiled, err := pipe.Compile(fig7Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, hit, err := pipe.Schedule(compiled.Graph, mustParams(t, body), nearCapIterations)
	if err != nil || !hit {
		t.Fatalf("plan lookup: hit=%v err=%v", hit, err)
	}
	sched, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	perRequest := func(srv *Server, dropMemo bool) uint64 {
		rd := bytes.NewReader(nil)
		req, err := http.NewRequest(http.MethodPost, "/v1/schedule", io.NopCloser(rd))
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponseWriter{h: make(http.Header)}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			if dropMemo {
				plan.hitMu.Lock()
				plan.hitBody = nil
				plan.hitMu.Unlock()
			}
			rd.Reset(body)
			w.status, w.n = 0, 0
			srv.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n <= len(sched) {
				t.Fatalf("status %d, wrote %d bytes (schedule alone is %d)", w.status, w.n, len(sched))
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / rounds
	}

	streamed := perRequest(streaming, false)
	rendered := perRequest(buffered, true)
	t.Logf("near-cap reply (%d schedule bytes): streamed %d B/request, buffered %d B/request (%.0fx)",
		len(sched), streamed, rendered, float64(rendered)/float64(streamed))
	if rendered < 10*streamed {
		t.Fatalf("streaming saves only %.1fx over buffering (streamed %d, buffered %d); want >= 10x",
			float64(rendered)/float64(streamed), streamed, rendered)
	}
	const ceiling = 256 << 10
	if streamed > ceiling {
		t.Fatalf("streamed near-cap reply allocates %d B/request, over the %d ceiling", streamed, ceiling)
	}
}

// TestStreamStatsCounters: /v1/stats must report the streaming lane's
// traffic — replies counted and body bytes summed — and servers that
// never stream report zeros.
func TestStreamStatsCounters(t *testing.T) {
	srv := NewServerWith(New(Config{}), ServerConfig{StreamThreshold: 64})
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))
	var total uint64
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule %d: status %d", i, rec.Code)
		}
		total += uint64(rec.Body.Len())
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var stats struct {
		Streamed    uint64 `json:"streamed"`
		StreamBytes uint64 `json:"stream_bytes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Streamed != 3 || stats.StreamBytes != total {
		t.Fatalf("stats streamed=%d stream_bytes=%d, want 3 and %d", stats.Streamed, stats.StreamBytes, total)
	}
}
