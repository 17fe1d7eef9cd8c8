package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request of a load phase. Times are offsets
// from the phase start; for a closed loop due equals start.
type sample struct {
	idx   int
	due   time.Duration
	start time.Duration
	end   time.Duration
	// late is how far past its due time the generator released the
	// request while the connection was idle (timer lateness); wait is
	// how long a due request waited for a busy connection.
	late time.Duration
	wait time.Duration
	err  error
}

// latency is the request's latency: from its due time, so an open loop
// counts the wait a stall imposes on later requests.
func (s sample) latency() time.Duration { return s.end - s.due }

// sendFunc sends request i on c and reports a failed or refused request
// as an error.
type sendFunc func(c *conn, i int) error

// closedLoop runs one worker per connection, each sending the next
// request index as soon as its previous reply is read, until dur has
// passed and at least minCount requests were sent, or maxCount were.
func closedLoop(conns []*conn, dur time.Duration, minCount, maxCount int, send sendFunc) ([]sample, time.Duration) {
	var next atomic.Int64
	t0 := time.Now()
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				i := int(next.Add(1) - 1)
				if start >= dur && i >= minCount || i >= maxCount {
					return
				}
				err := send(c, i)
				per[w] = append(per[w], sample{idx: i, due: start, start: start, end: time.Since(t0), err: err})
			}
		}(w, c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	return merge(per), elapsed
}

// openLoop releases request i at arrivals[i] (offsets from the phase
// start) on whichever connection is free: a request that falls due while
// every connection is busy waits for one, and its latency still runs
// from its due time.
func openLoop(conns []*conn, arrivals []time.Duration, send sendFunc) []sample {
	var next atomic.Int64
	t0 := time.Now()
	per := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				due := arrivals[i]
				s := sample{idx: i, due: due}
				if now := time.Since(t0); now < due {
					time.Sleep(due - now)
					s.late = time.Since(t0) - due
				} else {
					s.wait = now - due
				}
				s.start = time.Since(t0)
				s.err = send(c, i)
				s.end = time.Since(t0)
				per[w] = append(per[w], s)
			}
		}(w, c)
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}

// poissonArrivals returns the first count arrival offsets of a Poisson
// process at rate per second.
func poissonArrivals(rng *rand.Rand, rate float64, count int) []time.Duration {
	out := make([]time.Duration, count)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		out[i] = time.Duration(t)
	}
	return out
}

// latencyStats summarizes a phase: median and p99 latency in ms, with a
// failed request counted as an infinitely late one (it misses any
// limit), and the failure count.
func latencyStats(samples []sample) (p50, p99 float64, failed int) {
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.err != nil {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(s.latency()))
	}
	return quantile(lat, 0.5), quantile(lat, 0.99), failed
}

// The end-to-end figures of a phase are medians over equal windows of
// it, so a transient disturbance (another process taking the CPU for a
// few seconds) moves one window, not the figure.
const (
	rateWindows = 8
	// p99Window is the fewest samples a window's p99 is taken over:
	// twenty samples lie beyond it.
	p99Window = 2000
)

// windows splits samples into k equal spans of time (by due time, or by
// end time when byEnd) over [0, span).
func windows(samples []sample, k int, span time.Duration, byEnd bool) [][]sample {
	out := make([][]sample, k)
	for _, s := range samples {
		t := s.due
		if byEnd {
			t = s.end
		}
		w := int(int64(t) * int64(k) / int64(span+1))
		out[min(max(w, 0), k-1)] = append(out[min(max(w, 0), k-1)], s)
	}
	return out
}

// phaseFigures summarizes a phase that ran for span: the median window
// completion rate, and the median of the windows' p50 and p99 latencies
// (a failed request counting as infinitely late). p99 windows hold at
// least p99Window samples each.
func phaseFigures(samples []sample, span time.Duration) (rate, p50, p99 float64, failed int) {
	var rates, p50s, p99s []float64
	for _, w := range windows(samples, rateWindows, span, true) {
		ok := 0
		for _, s := range w {
			if s.err == nil {
				ok++
			}
		}
		rates = append(rates, float64(ok)/(span.Seconds()/rateWindows))
	}
	for _, w := range windows(samples, rateWindows, span, false) {
		m, _, _ := latencyStats(w)
		p50s = append(p50s, m)
	}
	k := min(rateWindows, max(1, len(samples)/p99Window))
	for _, w := range windows(samples, k, span, false) {
		_, q, _ := latencyStats(w)
		p99s = append(p99s, q)
	}
	_, _, failed = latencyStats(samples)
	return median(rates), median(p50s), median(p99s), failed
}

// chunkRates are a closed loop's completion rates over consecutive
// chunks of size requests (by index): each chunk's count over its span,
// from its first start to its last end. A chunk that is a whole number
// of the mix's blocks holds the same mix as every other, so a chunk's
// rate does not follow how many slow requests it happened to catch. A
// partial last chunk is dropped; fewer than size requests make one chunk.
func chunkRates(samples []sample, size int) []float64 {
	var rates []float64
	for lo := 0; lo < len(samples); lo += size {
		if lo > 0 && lo+size > len(samples) {
			break
		}
		chunk := samples[lo:min(lo+size, len(samples))]
		first, last := chunk[0].start, chunk[0].end
		for _, s := range chunk {
			first, last = min(first, s.start), max(last, s.end)
		}
		rates = append(rates, float64(len(chunk))/(last-first).Seconds())
	}
	return rates
}

// backlogGrows reports whether the generator's backlog grew over the
// phase: the least-squares trend of the wait for a connection against
// the due time, extrapolated over the phase, exceeds limit. A rate the
// server sustains leaves the wait stationary however bursty it is; an
// unsustainable one makes it climb for the whole phase.
func backlogGrows(samples []sample, limit time.Duration) bool {
	if len(samples) < 2 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for _, s := range samples {
		x, y := float64(s.due), float64(s.wait)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(samples))
	den := n*sxx - sx*sx
	if den == 0 {
		return false
	}
	slope := (n*sxy - sx*sy) / den
	span := float64(samples[len(samples)-1].due - samples[0].due)
	return slope*span > float64(limit)
}
