package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/workload"
)

// discardResponseWriter is a zero-overhead http.ResponseWriter for
// serving-path measurements: it keeps one header map alive across
// requests and throws the body away, so what AllocsPerRun sees is the
// server's own work, not the recorder's.
type discardResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// hitRequest builds a reusable cache-hit request against srv: the body
// bytes, a rewindable reader, and the request wrapping it. Rewind the
// reader before each ServeHTTP call.
func hitRequest(t testing.TB, srv *Server) ([]byte, *bytes.Reader, *http.Request) {
	t.Helper()
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))
	// Warm the plan cache (and the pre-rendered body memo) first.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm request %d: status %d: %.200s", i, rec.Code, rec.Body)
		}
	}
	rd := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/v1/schedule", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	return body, rd, req
}

// TestScheduleCacheHitAllocs pins a per-request allocation budget on the
// cache-hit serving path: request parsing, cache lookup, and the
// pre-rendered response body, end to end through Server.ServeHTTP.
//
// Before the fast lane (PR 6) this path re-marshaled the full
// ScheduleResponse — re-compacting the ~21 KB embedded schedule through
// the outer encoder — at 22 allocs and ~127 µs per request; with the
// pre-rendered body it is a lookup plus a buffer copy. The budget below
// is the measured post-fast-lane count (16) plus slack of 2 for
// map-internal variation; if this fails after a serving change, the fast
// lane has started re-encoding per request — fix the regression rather
// than raising the budget.
func TestScheduleCacheHitAllocs(t *testing.T) {
	srv := NewServer(New(Config{}))
	body, rd, req := hitRequest(t, srv)
	w := &discardResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(500, func() {
		rd.Reset(body)
		w.status = 0
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	const budget = 18 // post-fast-lane measurement + slack; pre-fast-lane baseline was 22
	t.Logf("cache-hit serving path: %.1f allocs/request (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("cache-hit serving path allocates %.1f/request, over the budget of %d", allocs, budget)
	}
}

// TestScheduleCacheHitBytesIdentical is the double-encode regression
// test: repeated cache hits must serve byte-identical bodies (the
// pre-rendered memo), and the embedded schedule must be byte-identical
// to Plan.ScheduleJSON (the memo TestScheduleJSONMemoized pins) rather
// than a re-compacted copy.
func TestScheduleCacheHitBytesIdentical(t *testing.T) {
	srv := NewServer(New(Config{}))
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))

	post := func() (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec.Code, append([]byte(nil), rec.Body.Bytes()...)
	}

	if code, data := post(); code != http.StatusOK || !bytes.Contains(data, []byte(`"cache_hit":false`)) {
		t.Fatalf("first request: status %d, body %.200s", code, data)
	}
	_, first := post()
	if !bytes.Contains(first, []byte(`"cache_hit":true`)) {
		t.Fatalf("second request not a cache hit: %.200s", first)
	}
	for i := 0; i < 3; i++ {
		if _, again := post(); !bytes.Equal(first, again) {
			t.Fatalf("cache hit %d served different bytes than the first hit", i)
		}
	}

	// The embedded schedule is the memoized wire JSON, not a re-encode.
	var resp ScheduleResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	compiled, err := srv.pipe.Compile(fig7Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, hit, err := srv.pipe.Schedule(compiled.Graph, mustParams(t, body), 100)
	if err != nil || !hit {
		t.Fatalf("plan lookup: hit=%v err=%v", hit, err)
	}
	sched, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Schedule, sched) {
		t.Fatal("embedded schedule differs from the memoized ScheduleJSON")
	}
}

// mustParams decodes the scheduling options out of a request body the
// same way the server does.
func mustParams(t *testing.T, body []byte) core.Options {
	t.Helper()
	req, err := parseScheduleRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := req.params()
	return opts
}

// TestScheduleCacheHitInvalidatesOnMeasurement: a measured annotation
// landing on the plan (a tune or simulate request measuring it) must
// invalidate the pre-rendered body, so the next hit serves the new
// measured_by block — and repeat hits after that are again identical.
func TestScheduleCacheHitInvalidatesOnMeasurement(t *testing.T) {
	srv := NewServer(New(Config{}))
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))

	post := func() []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
		}
		return append([]byte(nil), rec.Body.Bytes()...)
	}
	post() // miss
	before := post()
	if bytes.Contains(before, []byte(`"measured_by"`)) {
		t.Fatalf("unmeasured plan serves a measured_by block: %.200s", before)
	}

	// Measure the served plan through the pipeline (what a tune with a
	// measured evaluator does for its winner).
	compiled, err := srv.pipe.Compile(fig7Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, hit, err := srv.pipe.Schedule(compiled.Graph, mustParams(t, body), 100)
	if err != nil || !hit {
		t.Fatalf("plan lookup: hit=%v err=%v", hit, err)
	}
	if _, err := srv.pipe.Evaluate(NewMeasuredEvaluator(3, 2, 1), plan); err != nil {
		t.Fatal(err)
	}

	after := post()
	if bytes.Equal(before, after) {
		t.Fatal("measured annotation did not invalidate the pre-rendered body")
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(after, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.MeasuredBy) != 1 || resp.MeasuredBy[0].Backend != "sim" || resp.MeasuredBy[0].Trials != 3 {
		t.Fatalf("measured_by = %+v", resp.MeasuredBy)
	}
	if again := post(); !bytes.Equal(after, again) {
		t.Fatal("post-measurement hits are not byte-identical")
	}
}

// TestRepeatedTuneKeepsHitBody: a repeated deterministic tune lands stats
// equal to the plan's annotation, which must leave the annotation and
// its generation alone, so the pre-rendered cache-hit body survives it:
// tune, hit, tune, hit renders the body once and serves the same slice.
func TestRepeatedTuneKeepsHitBody(t *testing.T) {
	p := New(Config{})
	opt := TuneOptions{Processors: []int{2}, CommCosts: []int{2}, Evaluator: NewMeasuredEvaluator(3, 3, 1)}
	renders := 0
	render := func() ([]byte, error) {
		renders++
		return []byte(fmt.Sprintf("body %d", renders)), nil
	}
	var bodies [][]byte
	var annotations []*MeasuredStats
	for i := 0; i < 2; i++ {
		res, err := p.AutoTune(workload.Figure7().Graph, 100, opt)
		if err != nil {
			t.Fatal(err)
		}
		body, err := res.Best.Plan.HitResponseBody("fig7", render)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		annotations = append(annotations, res.Best.Plan.Measured())
	}
	if renders != 1 || &bodies[0][0] != &bodies[1][0] {
		t.Fatalf("tune, hit, tune, hit rendered the body %d times (%q, %q), want once", renders, bodies[0], bodies[1])
	}
	if annotations[0] == nil || annotations[1] != annotations[0] {
		t.Fatalf("the equal annotation was replaced: %p then %p", annotations[0], annotations[1])
	}
}
