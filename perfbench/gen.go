package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"regexp"

	"mimdloop/internal/cluster/clustertest"
	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/loopir"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/workload"
)

// loop is one loop-language program with its compiled graph. The
// benchmark compiles every source it sends, for plan keys, the
// sequential baseline n·Σlatency and the library checks; the server
// compiles the same source on its own.
type loop struct {
	name string
	src  string
	g    *graph.Graph
}

func compileLoop(name, src string) (loop, error) {
	l, err := loopir.Parse(src)
	if err != nil {
		return loop{}, fmt.Errorf("%s: %w", name, err)
	}
	c, err := loopir.Compile(l)
	if err != nil {
		return loop{}, fmt.Errorf("%s: %w", name, err)
	}
	return loop{name: name, src: src, g: c.Graph}, nil
}

// graphLoop renders a dependence graph to loop source and compiles it.
func graphLoop(name string, g *graph.Graph) (loop, error) {
	src, err := clustertest.LoopSource(name, g)
	if err != nil {
		return loop{}, err
	}
	return compileLoop(name, src)
}

// figureLoops returns the paper's worked examples: the three code-listed
// loops as written, the graph-drawn figures rendered to source.
func figureLoops() ([]loop, error) {
	var out []loop
	for _, f := range []struct{ name, src string }{
		{"figure7", workload.Figure7Source},
		{"livermore18", workload.Livermore18Source},
		{"elliptic", workload.EllipticSource},
	} {
		l, err := compileLoop(f.name, f.src)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	for _, f := range []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", workload.Figure1()},
		{"figure3", workload.Figure3()},
		{"figure9", workload.Figure9()},
	} {
		l, err := graphLoop(f.name, f.g)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// randomLoop is the Section 4 random loop for a workload seed.
func randomLoop(name string, seed int64) (loop, error) {
	g, err := workload.Random(workload.PaperSpec, seed)
	if err != nil {
		return loop{}, err
	}
	return graphLoop(name, g)
}

// nodeArray matches a node's array name in LoopSource's rendering.
var nodeArray = regexp.MustCompile(`\bn(\d+)\[`)

// renamed is l with every node array renamed under prefix: the same
// dependence graph, so the same scheduling work, under a new fingerprint
// and so a new plan key.
func renamed(l loop, prefix string) (loop, error) {
	return compileLoop(prefix+l.name, nodeArray.ReplaceAllString(l.src, prefix+"n${1}["))
}

// table1Loops are the 25 random loops of the paper's Table 1.
func table1Loops() ([]loop, error) {
	suite, err := workload.Suite()
	if err != nil {
		return nil, err
	}
	out := make([]loop, len(suite))
	for j, g := range suite {
		if out[j], err = graphLoop(fmt.Sprintf("table1_%02d", j+1), g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// streamLoop is a stream chain: chains of perChain self-recurrent nodes.
func streamLoop(chains, perChain, latency int) (loop, error) {
	g, err := workload.Streams(chains, perChain, latency)
	if err != nil {
		return loop{}, err
	}
	return graphLoop(fmt.Sprintf("streams%dx%dl%d", chains, perChain, latency), g)
}

// request is one generated HTTP request and the inputs behind it.
type request struct {
	kind   string // schedule, record, batch, unseen, tune, probe
	method string
	path   string
	body   []byte

	// Inputs of a schedule-shaped request (schedule, unseen, probe,
	// record): the loop, the options the server derives, the iteration
	// count and the plan key.
	loop loop
	opts core.Options
	n    int
	key  string

	// items are a batch request's entries.
	items []*request
	// tune is a tune request's body; deterministic marks an evaluation
	// on the sim or csim backend, whose replies must repeat exactly.
	tune          *pipeline.TuneRequest
	deterministic bool
}

// seqCycles is the one-processor schedule length n·Σlatency, the
// baseline of static percentage parallelism.
func (r *request) seqCycles() int { return r.n * r.loop.g.TotalLatency() }

// scheduleRequest builds POST /v1/schedule for (l, p, k, n).
func scheduleRequest(kind string, l loop, procs, k, n int) (*request, error) {
	body, err := json.Marshal(map[string]any{"source": l.src, "processors": procs, "comm_cost": k, "iterations": n})
	if err != nil {
		return nil, err
	}
	opts := core.Options{Processors: procs, CommCost: k}
	return &request{
		kind: kind, method: "POST", path: "/v1/schedule", body: body,
		loop: l, opts: opts, n: n, key: pipeline.PlanKey(l.g.Fingerprint(), opts, n),
	}, nil
}

// recordRequest builds GET /v1/plans/{fp}?key= for a schedule request's
// plan record.
func recordRequest(r *request) *request {
	rec := *r
	rec.kind, rec.method, rec.body = "record", "GET", nil
	rec.path = "/v1/plans/" + r.loop.g.Fingerprint() + "?key=" + url.QueryEscape(r.key)
	return &rec
}

// batchRequest builds POST /v1/batch over schedule requests.
func batchRequest(items []*request) (*request, error) {
	type item struct {
		Source     string `json:"source"`
		Processors int    `json:"processors"`
		CommCost   int    `json:"comm_cost"`
		Iterations int    `json:"iterations"`
	}
	var body struct {
		Items []item `json:"items"`
	}
	for _, it := range items {
		body.Items = append(body.Items, item{it.loop.src, it.opts.Processors, it.opts.CommCost, it.n})
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &request{kind: "batch", method: "POST", path: "/v1/batch", body: data, items: items}, nil
}

// corpusEntry is r as a warm-up corpus entry.
func corpusEntry(r *request) pipeline.ScheduleRequest {
	k := r.opts.CommCost
	return pipeline.ScheduleRequest{Source: r.loop.src, CommCost: &k, Processors: r.opts.Processors, Iterations: r.n}
}

// indexRNG is the random stream of request i under a workload seed, so a
// request's content depends only on (seed, i), never on which
// connection sends it or when.
func indexRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 17))
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += math.Pow(float64(i+1), -s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) rank(rng *rand.Rand) int { return z.rankIn(rng, 0, len(z.cdf)) }

// mass is the probability of ranks lo..hi-1.
func (z *zipf) mass(lo, hi int) float64 { return z.at(hi) - z.at(lo) }

// at is the probability of the ranks below r.
func (z *zipf) at(r int) float64 {
	if r == 0 {
		return 0
	}
	return z.cdf[r-1]
}

// rankIn samples a rank in lo..hi-1 with the same relative weights.
func (z *zipf) rankIn(rng *rand.Rand, lo, hi int) int {
	u := z.at(lo) + rng.Float64()*z.mass(lo, hi)
	hi--
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
