package main

import (
	"errors"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mimdloop/internal/pipeline"
	"mimdloop/internal/store"
)

// requestHeader carries the traced replay's request id to the handler
// wrapper, so server-side spans join the client's request.
const requestHeader = "X-Perfbench-Request"

// span is one timed call. Spans come only from the benchmark's own code:
// the handler wrapper, the store decorators, and the library replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replay marks a call the benchmark re-executed after the request, on
	// the same inputs, to time a layer the server ran inside its parent:
	// its duration counts as parent work although it lies outside the
	// parent's interval.
	Replay bool `json:"replay,omitempty"`
	// Probe marks a one-call measurement (one machine run, one runtime
	// pass) beside a parent that repeats the call: reported per call,
	// never subtracted from the parent.
	Probe bool `json:"probe,omitempty"`
	// Value is the quantity the call handled: bytes, a hit, trials.
	Value float64 `json:"value,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// storeEvent is one store call seen by a decorator, kept for the
// replay: disk reads are re-decoded and disk writes re-encoded after the
// request to time the codec.
type storeEvent struct {
	span int
	tier string // pipeline.mem or store.disk
	op   string // get, put
	key  string
	plan *pipeline.Plan
	hit  bool
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	// handler and req are the span id and request id of the request the
	// server is handling: the traced replay is serial, so store calls
	// made meanwhile belong to it.
	handler atomic.Int64
	req     atomic.Int64
	// done carries the span id of each finished request's handler span
	// to the client, which waits for it before replaying the request.
	done chan int

	mu     sync.Mutex
	spans  []span
	index  map[int]int // span id -> position in spans
	events []storeEvent
	// record is the open store.disk.record span: the record's bytes are
	// copied to the socket by the server after OpenRecord returns, so the
	// span closes with the handler.
	record *span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), index: make(map[int]int), done: make(chan int, 1)}
}

// handlerDone waits for the handler span of the request just sent.
func (t *tracer) handlerDone() (int, error) {
	select {
	case id := <-t.done:
		return id, nil
	case <-time.After(traceWait):
		return 0, errors.New("the handler wrapper recorded no span for the last request")
	}
}

// setParent links a recorded span to its parent.
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[t.index[id]].Parent = parent
	t.mu.Unlock()
}

func (t *tracer) id() int { return int(t.nextID.Add(1)) }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// add records a finished span and returns it.
func (t *tracer) add(s span) span {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.index[s.ID] = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// setValue sets the quantity a recorded span handled.
func (t *tracer) setValue(id int, v float64) {
	t.mu.Lock()
	t.spans[t.index[id]].Value = v
	t.mu.Unlock()
}

// timed runs fn as a span under parent.
func (t *tracer) timed(name string, parent, req int, replay bool, fn func()) span {
	t0 := time.Now()
	fn()
	return t.add(span{Parent: parent, Req: req, Name: name, Start: t.ns(t0), End: t.ns(time.Now()), Replay: replay})
}

// probe runs fn as a one-call measurement under parent (see span.Probe).
func (t *tracer) probe(name string, parent, req int, value float64, fn func()) {
	t0 := time.Now()
	fn()
	t.add(span{Parent: parent, Req: req, Name: name, Start: t.ns(t0), End: t.ns(time.Now()), Replay: true, Probe: true, Value: value})
}

// openSpan records the store.Open call of a traced stack's set-up.
func (t *tracer) openSpan(t0 time.Time, d time.Duration) {
	t.add(span{Name: "store.disk.open", Start: t.ns(t0), End: t.ns(t0.Add(d))})
}

// wrap is the handler wrapper: one pipeline.server.handler span around
// ServeHTTP per request, parent of every store call made meanwhile.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.Atoi(r.Header.Get(requestHeader))
		id := t.id()
		t.req.Store(int64(req))
		t.handler.Store(int64(id))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.handler.Store(0)
		t.req.Store(0)
		t.mu.Lock()
		rec := t.record
		t.record = nil
		t.mu.Unlock()
		if rec != nil {
			rec.End = t.ns(end)
			t.add(*rec)
		}
		t.add(span{ID: id, Req: req, Name: "pipeline.server.handler", Start: t.ns(t0), End: t.ns(end)})
		select {
		case t.done <- id:
		default:
		}
	})
}

// takeEvents returns and clears the store events of the last request.
func (t *tracer) takeEvents() []storeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.events
	t.events = nil
	return ev
}

// tracedStore is a PlanStore decorator timing every call into the store
// it wraps; TieredStore composes it like the store itself. Listing keeps
// working through Plans.
type tracedStore struct {
	inner pipeline.PlanStore
	name  string
	tr    *tracer
}

func (s *tracedStore) call(op string, t0 time.Time, value float64) span {
	return s.tr.add(span{
		Parent: int(s.tr.handler.Load()), Req: int(s.tr.req.Load()),
		Name: s.name + "." + op, Start: s.tr.ns(t0), End: s.tr.ns(time.Now()), Value: value,
	})
}

// Get implements pipeline.PlanStore.
func (s *tracedStore) Get(key string) (*pipeline.Plan, bool) {
	t0 := time.Now()
	p, ok := s.inner.Get(key)
	hit := 0.0
	if ok {
		hit = 1
	}
	sp := s.call("get", t0, hit)
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, storeEvent{span: sp.ID, tier: s.name, op: "get", key: key, plan: p, hit: ok})
	s.tr.mu.Unlock()
	return p, ok
}

// Put implements pipeline.PlanStore.
func (s *tracedStore) Put(key string, p *pipeline.Plan) {
	t0 := time.Now()
	s.inner.Put(key, p)
	sp := s.call("put", t0, 0)
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, storeEvent{span: sp.ID, tier: s.name, op: "put", key: key, plan: p})
	s.tr.mu.Unlock()
}

// Delete implements pipeline.PlanStore.
func (s *tracedStore) Delete(key string) { s.inner.Delete(key) }

// Len implements pipeline.PlanStore.
func (s *tracedStore) Len() int { return s.inner.Len() }

// Bytes implements pipeline.PlanStore.
func (s *tracedStore) Bytes() int64 { return s.inner.Bytes() }

// Flush implements pipeline.PlanStore.
func (s *tracedStore) Flush() error { return s.inner.Flush() }

// Close implements pipeline.PlanStore.
func (s *tracedStore) Close() error { return s.inner.Close() }

// Stats implements pipeline.PlanStore.
func (s *tracedStore) Stats() pipeline.StoreStats { return s.inner.Stats() }

// Plans implements pipeline.PlanLister.
func (s *tracedStore) Plans() []pipeline.PlanInfo {
	if l, ok := s.inner.(pipeline.PlanLister); ok {
		return l.Plans()
	}
	return nil
}

// tracedDisk is the disk tier's decorator: it also keeps the raw record
// path (pipeline.RecordOpener) the server streams ?key= fetches through.
type tracedDisk struct {
	tracedStore
	disk *store.DiskStore
}

// OpenRecord implements pipeline.RecordOpener. The returned reader is
// the store's own, so the server's copy to the socket is unchanged.
func (d *tracedDisk) OpenRecord(key string) (io.ReadCloser, int64, error) {
	t0 := time.Now()
	rc, size, err := d.disk.OpenRecord(key)
	s := span{
		ID: d.tr.id(), Parent: int(d.tr.handler.Load()), Req: int(d.tr.req.Load()),
		Name: "store.disk.record", Start: d.tr.ns(t0), Value: float64(size),
	}
	if err != nil {
		s.End = d.tr.ns(time.Now())
		d.tr.add(s)
		return nil, 0, err
	}
	d.tr.mu.Lock()
	d.tr.record = &s
	d.tr.mu.Unlock()
	return rc, size, nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by nested children and minus the durations of
// replayed children, never below zero.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && !s.Probe {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self := s.dur()
		var nested [][2]int64
		for _, k := range kids[s.ID] {
			if k.Replay {
				self -= k.dur()
			} else {
				nested = append(nested, [2]int64{max(k.Start, s.Start), min(k.End, s.End)})
			}
		}
		self -= time.Duration(union(nested))
		out[s.ID] = max(self, 0)
	}
	return out
}

// union is the total length covered by the intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	started := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		switch {
		case !started || v[0] >= end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
