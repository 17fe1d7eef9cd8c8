package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"mimdloop/internal/calib"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/store"
)

// memEntries is the memory tier's plan capacity, as `loopsched serve
// -store DIR -cache 128` sets it. It is smaller than the zipf_serve key
// population, so that workload's tail is served by the disk tier, and
// it bounds the memory cold_schedule's never-repeated plans occupy.
const memEntries = 128

// setupReps is how many times a timed run sets the stack up when set-up
// is only opening an empty or near-empty store (cold_schedule,
// measured_tune): a fraction of a millisecond each, so many repetitions
// steady the median. zipf_serve's set-up reads the warm-up corpus from
// disk and repeats setupRepsWarm times.
const (
	setupReps     = 25
	setupRepsWarm = 5
)

// stack is one server process's worth of state: the tiered plan store,
// the pipeline, the HTTP server and its loopback listener.
type stack struct {
	disk   *store.DiskStore
	pipe   *pipeline.Pipeline
	srv    *http.Server
	url    string
	served chan error
	// warmTime is the Warmup pass.
	warmTime time.Duration
}

// openStack builds the stack over the store directory dir, runs warm-up
// over the corpus (as `serve -warmup` does) and starts serving. A non-nil
// tracer composes its store decorators into the tiered store and wraps
// the handler.
func openStack(dir string, corpus []pipeline.ScheduleRequest, tr *tracer) (*stack, error) {
	st := &stack{served: make(chan error, 1)}
	t0 := time.Now()
	disk, err := store.Open(store.DiskConfig{Dir: dir})
	openTime := time.Since(t0)
	if err != nil {
		return nil, err
	}
	st.disk = disk
	var upper pipeline.PlanStore = pipeline.NewMemStore(pipeline.MemConfig{MaxEntries: memEntries})
	var lower pipeline.PlanStore = disk
	if tr != nil {
		tr.openSpan(t0, openTime)
		upper = &tracedStore{inner: upper, name: "pipeline.mem", tr: tr}
		lower = &tracedDisk{tracedStore{inner: disk, name: "store.disk", tr: tr}, disk}
	}
	st.pipe = pipeline.New(pipeline.Config{MaxEntries: memEntries, Store: store.NewTiered(upper, lower)})
	cal := calib.NewManager(calib.ProfilePath(dir))
	if err := cal.Load(); err != nil {
		st.pipe.Close()
		return nil, fmt.Errorf("calibration profile: %w", err)
	}
	var handler http.Handler = pipeline.NewServerWith(st.pipe, pipeline.ServerConfig{Calibration: cal})
	if len(corpus) > 0 {
		t1 := time.Now()
		warm := st.pipe.Warmup(corpus, 0)
		st.warmTime = time.Since(t1)
		if warm.Failed > 0 {
			st.pipe.Close()
			return nil, fmt.Errorf("warmup failed on %d entries: %v", warm.Failed, warm.Errors)
		}
	}
	if tr != nil {
		handler = tr.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.pipe.Close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// close stops the server, waits for it to return, and closes the stores.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.pipe.Close())
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	pipeline.Stats
	Streamed    uint64 `json:"streamed"`
	StreamBytes uint64 `json:"stream_bytes"`
}

func (s *stack) stats(c *conn) (serverStats, error) {
	var out serverStats
	status, body, err := c.get(s.url + "/v1/stats")
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	return out, json.Unmarshal(body, &out)
}

// setUp opens the stack reps times over the prepared store directory
// dir and returns the last stack plus the median set-up time.
// Every stack but the last is closed again before it serves anything,
// so each repetition sees the same directory. Set-up time runs from
// store.Open to the listener accepting connections; a garbage collection
// before each repetition keeps the benchmark's own earlier allocations
// (request generation, the previous stack) out of it.
func setUp(dir string, corpus []pipeline.ScheduleRequest, reps int) (*stack, float64, error) {
	var times []float64
	var st *stack
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		s, err := openStack(dir, corpus, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep < reps-1 {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
			continue
		}
		st = s
	}
	return st, median(times), nil
}

// conn is one client connection: an HTTP client whose transport keeps
// exactly one connection to the server, and a reusable body buffer.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole reply into the connection's
// buffer; the returned body is valid until the next call.
func (c *conn) do(method, url string, body []byte, reqID int) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID > 0 {
		req.Header.Set(requestHeader, fmt.Sprint(reqID))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(url string) (int, []byte, error) { return c.do(http.MethodGet, url, nil, 0) }

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
