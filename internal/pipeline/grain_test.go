package pipeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/workload"
)

// TestGrainZeroKeyByteIdentity is the golden pin of the grain axis:
// grain-0 (and the normalized grain-1) keys render byte-identical to
// the pre-grain format, so every plan record persisted before the axis
// existed keeps its key and replays with zero recomputes; a fusing
// grain joins the key as an explicit token.
func TestGrainZeroKeyByteIdentity(t *testing.T) {
	opts := core.Options{Processors: 2, CommCost: 2}
	// The literal pre-grain suffix: fmt %+v over the full options struct
	// as it existed before the Grain field.
	want := "h|{Processors:2 CommCost:2 CommFromStart:false WindowHeight:0" +
		" MaxIterations:0 AppendOnly:false FIFOOrder:false FoldNonCyclic:false" +
		" DriftBound:0}|n30"
	if got := PlanKey("h", opts, 30); got != want {
		t.Fatalf("grain-0 key drifted:\n got %s\nwant %s", got, want)
	}
	four := opts
	four.Grain = 4
	if got, want := PlanKey("h", four, 30), "|grain4|n30"; !strings.HasSuffix(got, want) {
		t.Fatalf("grain-4 key %q does not end in %q", got, want)
	}
}

// TestGrainOneNormalizedToZero pins the key-stability normalization:
// Schedule treats grain 1 as grain 0 (the two schedule identically), so
// both share one cache entry and one key.
func TestGrainOneNormalizedToZero(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	defer p.Close()
	zero, hit0, err := p.Schedule(g, core.Options{Processors: 2, CommCost: 2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	one, hit1, err := p.Schedule(g, core.Options{Processors: 2, CommCost: 2, Grain: 1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if hit0 || !hit1 {
		t.Fatalf("hits = %v, %v; want miss then hit", hit0, hit1)
	}
	if zero != one {
		t.Fatal("grain 0 and grain 1 produced distinct cached plans")
	}
	if one.Opts.Grain != 0 {
		t.Fatalf("cached plan keeps grain %d, want normalized 0", one.Opts.Grain)
	}
}

// TestLegacyKeyOptionsMirror pins PlanKey against core.Options drifting:
// the key renders the options field by field in the pre-grain %+v
// format, so a field added to core.Options joins it only if PlanKey
// writes it. Setting any exported field must change the key; a field
// that does not means two option sets would share one plan. Add it to
// PlanKey ONLY if plans are allowed to alias across its values;
// otherwise render it and accept that historical keys change (and say
// so in the codec version notes).
func TestLegacyKeyOptionsMirror(t *testing.T) {
	zero := PlanKey("h", core.Options{}, 30)
	ot := reflect.TypeOf(core.Options{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		if !f.IsExported() {
			// Unexported fields (chunkLocality) are scheduler-internal,
			// derived deterministically from Grain; they cannot be set
			// by callers and must not join the key.
			continue
		}
		var o core.Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(7) // past 1, where Grain starts to count
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("core.Options.%s has kind %s; teach PlanKey and this test to render it", f.Name, v.Kind())
		}
		if got := PlanKey("h", o, 30); got == zero {
			t.Errorf("setting core.Options.%s leaves the plan key %q unchanged", f.Name, got)
		}
	}
}

// TestPlanRecordV3Decodes pins backward compatibility: a version-3
// record (no grain fields anywhere) decodes to the same key and plan a
// grain-0 version-4 record does — replaying a pre-grain durable store
// recomputes nothing. The record is the committed version-4 figure 7
// record at 20 iterations with its header rewritten; a version-5
// record, like it, never mentions a grain of 0.
func TestPlanRecordV3Decodes(t *testing.T) {
	key, p := buildFig7Plan(t, 20)
	v5, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	data := readRecord(t, v4Records[0])
	for _, rec := range [][]byte{data, v5} {
		if bytes.Contains(rec, []byte("Grain")) || bytes.Contains(rec, []byte("grain")) {
			t.Fatalf("grain-0 record mentions grain: %s", rec)
		}
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if string(rec["version"]) != "4" {
		t.Fatalf("record version = %s, want 4", rec["version"])
	}
	// Rewrite the header to version 3: byte-compatible by construction.
	v3 := bytes.Replace(data, []byte(`"version":4`), []byte(`"version":3`), 1)
	gotKey, got, err := DecodePlan(v3)
	if err != nil {
		t.Fatalf("v3 record rejected: %v", err)
	}
	if gotKey != key {
		t.Fatalf("v3 key %q, want %q", gotKey, key)
	}
	if got.Opts.Grain != 0 || got.Schedule.Full.Grain != 0 {
		t.Fatalf("v3 record decoded with grain %d/%d", got.Opts.Grain, got.Schedule.Full.Grain)
	}
	js1, _ := p.ScheduleJSON()
	js2, err := got.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("schedule JSON differs after a v3 decode")
	}
}

// TestGrainPlanCodecRoundTrip pins the version-4 record on a fused
// plan: the grain survives both the options and the schedule, the key
// carries the grain token, and re-encoding reproduces the record.
func TestGrainPlanCodecRoundTrip(t *testing.T) {
	g, err := workload.Streams(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Processors: 2, CommCost: 2, Grain: 4}
	p := New(Config{DisableCache: true})
	defer p.Close()
	plan, _, err := p.Schedule(g, opts, 24)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	key, got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := PlanKey(g.Fingerprint(), opts, 24); key != want {
		t.Fatalf("key %q, want %q", key, want)
	}
	if got.Opts.Grain != 4 || got.Schedule.Full.Grain != 4 {
		t.Fatalf("grain lost in round trip: %d/%d", got.Opts.Grain, got.Schedule.Full.Grain)
	}
	data2, err := EncodePlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoded grain record not byte-identical")
	}
	// A mismatching grain between options and schedule is tampering.
	bad := bytes.Replace(data, []byte(`"Grain":4`), []byte(`"Grain":8`), 1)
	if _, _, err := DecodePlan(bad); err == nil {
		t.Fatal("record with options/schedule grain disagreement accepted")
	}
}

// TestGrainStoreReplayZeroRecomputes pins the durable-replay guarantee
// across the grain axis: a second pipeline sharing the first one's
// store serves both grain-0 and grain-4 requests as pure store hits.
func TestGrainStoreReplayZeroRecomputes(t *testing.T) {
	g, err := workload.Streams(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore(MemConfig{})
	p1 := New(Config{Store: store})
	zeroOpts := core.Options{Processors: 2, CommCost: 2}
	grainOpts := core.Options{Processors: 2, CommCost: 2, Grain: 4}
	if _, _, err := p1.Schedule(g, zeroOpts, 24); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p1.Schedule(g, grainOpts, 24); err != nil {
		t.Fatal(err)
	}

	p2 := New(Config{Store: store})
	for _, opts := range []core.Options{zeroOpts, grainOpts} {
		_, hit, err := p2.Schedule(g, opts, 24)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("grain %d request recomputed on replay", opts.Grain)
		}
	}
	if misses := p2.Stats().Misses; misses != 0 {
		t.Fatalf("replay pipeline recorded %d misses, want 0", misses)
	}
}

// streamChainSource is a chunk-friendly loop in the server DSL: every
// statement carries a distance-1 self-recurrence and consumes the
// previous statement's current-iteration value.
const streamChainSource = `loop chain(N = 100) {
    A[i] = A[i-1] + U[i]
    B[i] = B[i-1] + A[i]
    C[i] = C[i-1] + B[i]
    D[i] = D[i-1] + C[i]
}`

// TestTuneGrainAxisHTTP drives the grain axis end to end over the HTTP
// surface: grains widens the grid, every cell reports its grain, and
// serial_threshold short-circuits to the sequential fallback.
func TestTuneGrainAxisHTTP(t *testing.T) {
	srv := NewServer(New(Config{}))
	resp, data := postJSON(t, srv, "/v1/tune", TuneRequest{
		Source: streamChainSource, Iterations: 32,
		Processors: []int{2}, CommCosts: []int{2}, Grains: []int{1, 4},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rep TuneResponse
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("grid evaluated %d cells, want 2", len(rep.Results))
	}
	grains := map[int]bool{}
	for _, r := range rep.Results {
		grains[r.Grain] = true
	}
	// Cells echo the requested grain axis verbatim (the grain-1 plan is
	// normalized to grain 0 internally, but the grid point keeps 1).
	if !grains[1] || !grains[4] {
		t.Fatalf("grid grains = %v, want {1, 4}", grains)
	}
	if rep.SerialFallback {
		t.Fatal("tune without a threshold reported a serial fallback")
	}

	resp, data = postJSON(t, srv, "/v1/tune", TuneRequest{
		Source: streamChainSource, Iterations: 4, SerialThreshold: 1000,
		Processors: []int{2}, CommCosts: []int{2}, Grains: []int{1, 4},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	rep = TuneResponse{}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.SerialFallback {
		t.Fatal("serial_threshold above total work did not trip the fallback")
	}
	if rep.Best.Processors != 1 || rep.Best.Grain != 0 {
		t.Fatalf("fallback best = %+v, want the one-processor sequential plan", rep.Best)
	}

	// Out-of-range grains are a client error, checked before scheduling.
	resp, data = postJSON(t, srv, "/v1/tune", TuneRequest{
		Source: streamChainSource, Iterations: 8,
		Processors: []int{2}, CommCosts: []int{2}, Grains: []int{65},
	})
	if resp.StatusCode != 400 {
		t.Fatalf("grain 65: status %d: %s", resp.StatusCode, data)
	}
}
