package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/machine"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// goldenPlan is one plan of the byte-identity golden set, with the loop
// name its schedule replies carry.
type goldenPlan struct {
	name string
	plan *Plan
}

// goldenPlans builds the byte-identity golden set: the 25 Table 1 loops
// and the six paper figures at two iteration counts each, a grain-4
// stream chain, a plan annotated by both the sim and gort backends, a
// plan with an idle processor, and graphs whose node names need
// escaping.
func goldenPlans(t *testing.T) []goldenPlan {
	t.Helper()
	var out []goldenPlan
	add := func(name string, g *graph.Graph, opts core.Options, n int) *Plan {
		t.Helper()
		p, _, err := New(Config{DisableCache: true}).Schedule(g, opts, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenPlan{name, p})
		return p
	}
	suite, err := workload.Suite()
	if err != nil {
		t.Fatal(err)
	}
	figures := []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", workload.Figure1()},
		{"figure3", workload.Figure3()},
		{"figure7", workload.Figure7().Graph},
		{"figure9", workload.Figure9()},
		{"livermore18", workload.Livermore18().Graph},
		{"elliptic", workload.Elliptic().Graph},
	}
	for _, n := range []int{24, 100} {
		for i, g := range suite {
			add(fmt.Sprintf("table1-%02d-n%d", i+1, n), g, core.Options{CommCost: 2}, n)
		}
		for _, f := range figures {
			add(fmt.Sprintf("%s-n%d", f.name, n), f.g, fig7Opts, n)
		}
	}

	streams, err := workload.Streams(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	add("streams-grain4", streams, core.Options{Processors: 2, CommCost: 2, Grain: 4}, 24)

	measured := add("figure7-sim-and-gort", workload.Figure7().Graph, fig7Opts, 10)
	evals := New(Config{})
	for _, ev := range []*MeasuredEvaluator{
		{Trials: 2, Fluct: 3, Seed: 9},
		{Trials: 1, Backend: exec.Goroutine{}},
	} {
		if _, err := evals.Evaluate(ev, measured); err != nil {
			t.Fatal(err)
		}
	}
	if len(measured.MeasuredAll()) != 2 {
		t.Fatalf("annotations %+v, want sim and gort", measured.MeasuredAll())
	}

	// No lowering leaves a processor idle, so one is appended: its
	// program renders "Instrs":null.
	idle := add("figure7-idle-processor", workload.Figure7().Graph, fig7Opts, 10)
	idle.Programs = append(idle.Programs, program.Program{Proc: len(idle.Programs)})

	add("escaped-names", namedChain(t, "a<b", "c>d", "e&f", `g"h`, `i\j`, "k\x01l", "m\u2028n", "o\u00e9p"), core.Options{CommCost: 1}, 12)
	add("invalid-utf8-name", namedChain(t, "ok", "bad\xffname"), core.Options{CommCost: 1}, 12)
	return out
}

// namedChain builds a chain of unit-latency nodes with the given names,
// closed by a loop-carried edge, through the graph API.
func namedChain(t *testing.T, names ...string) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i, name := range names {
		b.AddNode(name, 1)
		if i > 0 {
			b.AddEdge(i-1, i, 0)
		}
	}
	b.AddEdge(len(names)-1, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlanWireMatchesReference is the byte-identity golden of the plan
// wire path: for every golden plan, ScheduleJSON, EncodePlan and the
// three /v1/schedule bodies — cold buffered, memoized hit body and
// streamed — are byte-identical to the reflection-based reference
// rendering, and DecodePlan accepts exactly what the reference decoder
// accepts, to the same plan.
func TestPlanWireMatchesReference(t *testing.T) {
	for _, gp := range goldenPlans(t) {
		t.Run(gp.name, func(t *testing.T) {
			p := gp.plan
			sched, err := p.ScheduleJSON()
			if err != nil {
				t.Fatal(err)
			}
			wantSched, err := refMarshalSchedule(p.Schedule.Full)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sched, wantSched) {
				t.Fatalf("ScheduleJSON differs from the reference:\n got %.300s\nwant %.300s", sched, wantSched)
			}
			rec, err := EncodePlan(p)
			if err != nil {
				t.Fatal(err)
			}
			wantRec, err := refEncodePlan(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, wantRec) {
				t.Fatalf("EncodePlan differs from the reference:\n got %.300s\nwant %.300s", rec, wantRec)
			}

			key, got, err := DecodePlan(rec)
			refKey, refGot, refErr := refDecodePlan(rec)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodePlan error %v, reference error %v", err, refErr)
			}
			if err == nil {
				if key != refKey {
					t.Fatalf("key %q, reference %q", key, refKey)
				}
				for _, want := range []*Plan{refGot, p} {
					if err := samePlan(got, want); err != nil {
						t.Fatal(err)
					}
				}
				if js, _ := got.ScheduleJSON(); !bytes.Equal(js, sched) {
					t.Fatal("decoded ScheduleJSON differs from the encoded plan's")
				}
				if again, _ := EncodePlan(got); !bytes.Equal(again, rec) {
					t.Fatal("re-encoded record differs")
				}
			}

			for _, hit := range []bool{false, true} {
				want, err := refScheduleReply(p, gp.name, hit, nil)
				if err != nil {
					t.Fatal(err)
				}
				split, err := splitScheduleReply(p, gp.name, hit, nil)
				if err != nil {
					t.Fatal(err)
				}
				for lane, threshold := range map[string]int{"buffered": 1 << 30, "streamed": 0} {
					w := httptest.NewRecorder()
					(&Server{streamThreshold: threshold}).writeSplit(w, http.StatusOK, split)
					if !bytes.Equal(w.Body.Bytes(), want) {
						t.Fatalf("%s reply (hit %v) differs from the reference", lane, hit)
					}
				}
			}
			want, err := refScheduleReply(p, gp.name, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if body, err := renderHitBody(p, gp.name); err != nil || !bytes.Equal(body, want) {
				t.Fatalf("hit body differs from the reference (err %v)", err)
			}
		})
	}
}

// TestServedRepliesMatchReference drives the three reply lanes end to
// end through ServeHTTP: a cold reply and a memoized hit from a
// buffering server, and the same two from a streaming one, all
// byte-identical to the reference rendering of the served plan.
func TestServedRepliesMatchReference(t *testing.T) {
	body := []byte(fmt.Sprintf(`{"source": %q, "processors": 2}`, fig7Source))
	for lane, threshold := range map[string]int{"buffered": 1 << 30, "streamed": 64} {
		srv := NewServerWith(New(Config{}), ServerConfig{StreamThreshold: threshold})
		var replies [][]byte
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s request %d: status %d", lane, i, rec.Code)
			}
			replies = append(replies, rec.Body.Bytes())
		}
		compiled, err := srv.pipe.Compile(fig7Source)
		if err != nil {
			t.Fatal(err)
		}
		p, hit, err := srv.pipe.Schedule(compiled.Graph, mustParams(t, body), 100)
		if err != nil || !hit {
			t.Fatalf("plan lookup: hit=%v err=%v", hit, err)
		}
		for i, reply := range replies {
			want, err := refScheduleReply(p, compiled.Loop.Name, i == 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply, want) {
				t.Fatalf("%s reply %d differs from the reference", lane, i)
			}
		}
	}
}

// TestDecodePlanLayouts: DecodePlan accepts a record in any key order,
// with insignificant whitespace and unknown keys, to the same plan and
// the canonical schedule bytes; a repeated key or a key that matches a
// field only under case folding (which encoding/json would silently
// merge) is rejected.
func TestDecodePlanLayouts(t *testing.T) {
	_, p := buildFig7Plan(t, 12)
	rec, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields) // keys sorted: programs before schedule
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, rec, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	unknown := append([]byte(`{"comment":{"by":["x",1.5e3,null,true]},`), rec[1:]...)
	sched, _ := p.ScheduleJSON()
	for name, data := range map[string][]byte{
		"sorted keys": sorted, "indented": indented.Bytes(), "unknown key": unknown,
	} {
		_, got, err := DecodePlan(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := samePlan(got, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if js, _ := got.ScheduleJSON(); !bytes.Equal(js, sched) {
			t.Fatalf("%s: schedule bytes not canonical", name)
		}
	}
	for name, data := range map[string][]byte{
		"repeated key":   append([]byte(`{"iterations":12,`), rec[1:]...),
		"case variant":   append([]byte(`{"Iterations":13,`), rec[1:]...),
		"trailing data":  append(append([]byte(nil), rec...), `{}`...),
		"nested variant": bytes.Replace(rec, []byte(`"placements":`), []byte(`"Placements":null,"placements":`), 1),
	} {
		if _, _, err := DecodePlan(data); err == nil {
			t.Errorf("%s: record accepted", name)
		}
	}
}

// firstMatch rewrites the first match of re in b to repl.
func firstMatch(b []byte, re *regexp.Regexp, repl string) []byte {
	loc := re.FindIndex(b)
	if loc == nil {
		return b
	}
	return append(append(append([]byte(nil), b[:loc[0]]...), repl...), b[loc[1]:]...)
}

// decodeSeeds is FuzzDecodePlan's seed corpus: records of figure 7, a
// grain-4 plan and a measured plan, their version 1, 2 (sorted keys)
// and 3 rewrites, an indented figure 7 record, and every corruption
// TestPlanCodecRejectsCorruption checks.
func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	encode := func(p *Plan) []byte {
		rec, err := EncodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	_, fig7 := buildFig7Plan(t, 10)
	streams, err := workload.Streams(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	grain, _, err := New(Config{DisableCache: true}).Schedule(streams, core.Options{Processors: 2, CommCost: 2, Grain: 4}, 24)
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(Config{})
	measured, _, err := pipe.Schedule(workload.Figure7().Graph, fig7Opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Evaluate(&MeasuredEvaluator{Trials: 4, Fluct: 3, Seed: 9}, measured); err != nil {
		t.Fatal(err)
	}
	base, measuredRec := encode(fig7), encode(measured)
	seeds := [][]byte{base, encode(grain), measuredRec}
	for _, v := range []string{`"version":1`, `"version":3`} {
		seeds = append(seeds, bytes.Replace(base, []byte(`"version":4`), []byte(v), 1))
	}
	// The version-2 shape: one "measured" block, keys sorted by a map
	// round trip.
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(measuredRec, &rec); err != nil {
		t.Fatal(err)
	}
	var by []json.RawMessage
	if err := json.Unmarshal(rec["measured_by"], &by); err != nil {
		t.Fatal(err)
	}
	rec["measured"], rec["version"] = by[0], json.RawMessage("2")
	delete(rec, "measured_by")
	v2, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, v2)
	var indented bytes.Buffer
	if err := json.Indent(&indented, base, "", " "); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, indented.Bytes())
	for _, mutate := range planCorruptions {
		seeds = append(seeds, mutate(append([]byte(nil), base...)))
	}
	return seeds
}

// FuzzDecodePlan feeds DecodePlan arbitrary bytes. It must never panic;
// whatever it accepts, the reference decoder accepts too, to the same
// key and plan; re-encoding an accepted plan decodes to the same plan;
// and an accepted plan runs on the simulated machine without panicking
// (an error, such as a deadlock, is fine).
//
//	go test -run '^$' -fuzz FuzzDecodePlan -fuzztime 30s ./internal/pipeline
func FuzzDecodePlan(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, p, err := DecodePlan(data)
		if err != nil {
			return
		}
		refKey, ref, err := refDecodePlan(data)
		if err != nil {
			t.Fatalf("DecodePlan accepted a record the reference rejects: %v", err)
		}
		if key != refKey {
			t.Fatalf("key %q, reference %q", key, refKey)
		}
		if err := samePlan(p, ref); err != nil {
			t.Fatalf("decoded plan differs from the reference: %v", err)
		}
		rec, err := EncodePlan(p)
		if err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		key2, again, err := DecodePlan(rec)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if key2 != key {
			t.Fatalf("re-encoded key %q, want %q", key2, key)
		}
		if err := samePlan(again, p); err != nil {
			t.Fatalf("re-encoded plan differs: %v", err)
		}
		_, _ = machine.Run(p.Schedule.Graph, p.Programs, machine.Config{Grain: p.Opts.Grain})
	})
}

// TestPlanCodecAllocs pins EncodePlan and DecodePlan to allocation
// budgets on the 3,000-placement plan the codec benchmarks use, so a
// regression shows as a deterministic count rather than as wall-clock
// time.
//
// Decoding through encoding/json (reflection over every placement and
// instruction, every slice grown element by element) cost 289
// allocations here; the one-pass scanner, which sizes the placement and
// instruction slices from the input, costs 162 — most of them graph
// construction and fingerprinting, which the codec does not own. On
// encode the reflection path made 5 allocations too (encoding/json
// pools its buffer), and so does the direct path: the header, its
// marshaled bytes, the key and one record-sized buffer. Its budget
// guards against per-element or regrowing allocations; the time saved
// shows in BenchmarkEncodePlan. If a budget fails after a codec change,
// find the allocation rather than raising the budget.
func TestPlanCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through encoding/json and fmt vary under -race")
	}
	p := codecBenchPlan(t)
	rec, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	encode := testing.AllocsPerRun(10, func() {
		if _, err := EncodePlan(p); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodePlan(rec); err != nil {
			t.Fatal(err)
		}
	})
	const (
		encodeBudget = 6   // measured 5; the reflection encoder made 5
		decodeBudget = 170 // measured 162; the reflection decoder made 289
	)
	t.Logf("%d-byte record: encode %.0f allocs (budget %d), decode %.0f allocs (budget %d)",
		len(rec), encode, encodeBudget, decode, decodeBudget)
	if encode > encodeBudget {
		t.Errorf("EncodePlan allocates %.0f times, over the budget of %d", encode, encodeBudget)
	}
	if decode > decodeBudget {
		t.Errorf("DecodePlan allocates %.0f times, over the budget of %d", decode, decodeBudget)
	}
}
