package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// cold_schedule: a closed loop on 2 connections where every POST
// /v1/schedule carries a plan key the server has never seen, so every
// request runs the whole chain (compile, classify, Cyclic-sched,
// expand, compose, lower, render, encode, fsync'd disk write).
const (
	coldConns = 2
	// coldCheckEvery and coldCheckCount pick the seeded sample of replies
	// checked against the library after the timed window.
	coldCheckEvery = 37
	coldCheckCount = 12
	// coldSpRequests is the fixed request prefix plan_sp_pct averages
	// over, so the metric is a pure function of the seed; the timed run
	// always completes at least this many requests.
	coldSpRequests = coldCheckEvery * coldCheckCount
	// coldPregenerate is how many requests are generated before the
	// timed window (later ones are generated on demand).
	coldPregenerate = 1500
	// coldMaxPlacements caps iterations x nodes: the largest loops stay
	// around 50 ms of scheduling and the memory tier's plans small, while
	// small loops still reach 2000 iterations.
	coldMaxPlacements = 12_000
	// coldBands stratifies the iteration range (see coldSeq.gen).
	coldBands = 8
)

// coldSeq is the cold_schedule request sequence of one seed.
type coldSeq struct {
	seed int64
	figs []loop

	mu   sync.Mutex
	reqs []*request
	seen map[string]bool
}

func newColdSeq(seed int64) (*coldSeq, error) {
	figs, err := figureLoops()
	if err != nil {
		return nil, err
	}
	return &coldSeq{seed: seed, figs: figs, seen: make(map[string]bool)}, nil
}

// at returns request i, generating the sequence up to it.
func (s *coldSeq) at(i int) (*request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		r, err := s.gen(len(s.reqs))
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, r)
	}
	return s.reqs[i], nil
}

// gen draws request i. The mix is stratified, so every seed sends the
// same proportions: in each block of 20 requests, positions 0-13 are
// Section 4 random loops, 14-16 paper figures (cycling through all six)
// and 17-19 stream chains; and each request draws its iteration count
// log-uniformly from one of coldBands bands of [100, 2000], every
// position visiting every band once per coldBands blocks. The seed draws
// the loops, n within its band, k in {2, 3} and a sufficient or 2..8
// processor budget. n is capped at coldMaxPlacements placements, and a
// drawn key that was already sent moves to the next unseen n.
func (s *coldSeq) gen(i int) (*request, error) {
	rng := indexRNG(s.seed, i)
	k := 2 + rng.Intn(2)
	procs := 0
	if rng.Intn(3) > 0 {
		procs = 2 + rng.Intn(7)
	}
	block, pos := i/20, i%20
	band := (5*block + 3*pos) % coldBands
	n := int(math.Round(100 * math.Pow(20, (float64(band)+rng.Float64())/coldBands)))
	var l loop
	var err error
	switch {
	case pos < 14:
		l, err = randomLoop(fmt.Sprintf("random%d", i), s.seed*1_000_000+int64(i)+1)
	case pos < 17:
		l = s.figs[(3*block+pos-14)%len(s.figs)]
	default:
		l, err = streamLoop(1+rng.Intn(3), 3+rng.Intn(4), 1+rng.Intn(2))
	}
	if err != nil {
		return nil, err
	}
	n = min(n, coldMaxPlacements/l.g.N())
	for {
		r, err := scheduleRequest("schedule", l, procs, k, n)
		if err != nil {
			return nil, err
		}
		if !s.seen[r.key] {
			s.seen[r.key] = true
			return r, nil
		}
		n++
	}
}

// coldRun collects what the timed loop's replies contribute.
type coldRun struct {
	seq *coldSeq
	url string

	mu   sync.Mutex
	sp   []float64
	kept map[int][]byte
}

func (c *coldRun) checked(i int) bool {
	return i < coldSpRequests && i%coldCheckEvery == int(c.seq.seed%coldCheckEvery+coldCheckEvery)%coldCheckEvery
}

func (c *coldRun) send(cn *conn, i int) error {
	r, err := c.seq.at(i)
	if err != nil {
		return err
	}
	status, body, err := cn.do(r.method, c.url+r.path, r.body, 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	env, err := parseEnvelope(body)
	if err != nil {
		return err
	}
	if env.CacheHit {
		return fmt.Errorf("request %d (%s) was served from the cache", i, r.loop.name)
	}
	if i < coldSpRequests {
		c.mu.Lock()
		c.sp[i] = staticSp(r, env.Makespan)
		if c.checked(i) {
			c.kept[i] = append([]byte(nil), body...)
		}
		c.mu.Unlock()
	}
	return nil
}

func runCold(cfg config) (*result, error) {
	seq, err := newColdSeq(cfg.seed)
	if err != nil {
		return nil, err
	}
	if _, err := seq.at(coldPregenerate - 1); err != nil {
		return nil, err
	}
	dir, err := cfg.subdir("store")
	if err != nil {
		return nil, err
	}
	st, setupS, err := setUp(dir, nil, setupReps)
	if err != nil {
		return nil, err
	}
	run := &coldRun{seq: seq, url: st.url, sp: make([]float64, coldSpRequests), kept: make(map[int][]byte)}
	conns := make([]*conn, coldConns)
	for i := range conns {
		conns[i] = newConn()
	}
	samples, elapsed := closedLoop(conns, time.Duration(cfg.seconds)*time.Second, coldSpRequests, math.MaxInt, run.send)
	for _, c := range conns {
		c.close()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	var errs []error
	for i, body := range run.kept {
		r, err := seq.at(i)
		if err != nil {
			return nil, err
		}
		if err := checkScheduleReply(r, body); err != nil {
			errs = append(errs, err)
		}
	}
	rate, p50, p99, failed := phaseFigures(samples, elapsed)
	for _, s := range samples {
		if s.err != nil {
			errs = append(errs, s.err)
		}
	}
	if err := checkErrors(errs); err != nil {
		fmt.Printf("cold_schedule: check failed: %v\n", err)
	}
	fmt.Printf("cold_schedule: %d requests in %.1fs on %d connections, %d replies checked against the library\n",
		len(samples), elapsed.Seconds(), coldConns, len(run.kept))
	return &result{
		Correct:   len(errs) == 0 && len(run.kept) == coldCheckCount,
		Attempted: len(samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"throughput_rps": {rate, "req/s"},
			// A closed loop at saturation completes requests as fast as
			// the server can take them: its completion rate is the
			// highest rate this workload sustains.
			"max_rate_rps":   {rate, "req/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p99_ms": {p99, "ms"},
			"plan_sp_pct":    {mean(run.sp), "%"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}, nil
}
