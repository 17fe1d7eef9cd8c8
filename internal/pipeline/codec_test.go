package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/machine"
	"mimdloop/internal/program"
	"mimdloop/internal/program/progtest"
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

	// No lowering leaves a processor idle, so one is appended. Records
	// carry no programs, so the decoded plan runs its schedule's lowering
	// without the appended one.
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
// accepts, to the same plan, which serves what the encoded one serves
// and runs its schedule's lowering.
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
				if err := samePlan(got, refGot); err != nil {
					t.Fatal(err)
				}
				if err := sameServing(got, p); err != nil {
					t.Fatal(err)
				}
				lowered, err := program.Build(p.Schedule.Full)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Programs, lowered) {
					t.Fatal("decoded programs are not the schedule's lowering")
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
	sorted, err := json.Marshal(fields) // keys sorted: the schedule before the version
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

// TestPlanRecordV4Decodes: every committed version-4 record decodes to
// the plan the current code builds — programs deep-equal, schedule bytes
// identical to the record's own and the fresh plan's — with its
// annotations kept, and re-encodes as a version-5 record that decodes to
// the same plan.
func TestPlanRecordV4Decodes(t *testing.T) {
	streams, err := workload.Streams(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		opts core.Options
		n    int
	}{
		{v4Records[0], workload.Figure7().Graph, fig7Opts, 20},
		{v4Records[1], streams, core.Options{Processors: 2, CommCost: 2, Grain: 4}, 24},
		{v4Records[2], workload.Figure7().Graph, fig7Opts, 10},
	} {
		rec := readRecord(t, c.name)
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec, &fields); err != nil {
			t.Fatal(err)
		}
		if string(fields["version"]) != "4" || fields["programs"] == nil {
			t.Fatalf("%s: not a version-4 record with programs", c.name)
		}
		key, got, err := DecodePlan(rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh, _, err := New(Config{DisableCache: true}).Schedule(c.g, c.opts, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if key != PlanKey(fresh.GraphHash, fresh.Opts, fresh.Iterations) {
			t.Fatalf("%s: key %q", c.name, key)
		}
		// The annotations are the record's, byte for byte.
		annotations, err := json.Marshal(got.MeasuredAll())
		if err != nil {
			t.Fatal(err)
		}
		want := []byte(fields["measured_by"])
		if want == nil {
			want = []byte("[]")
		}
		if !bytes.Equal(annotations, want) {
			t.Fatalf("%s: annotations %s, record has %s", c.name, annotations, want)
		}
		for _, ms := range got.MeasuredAll() {
			fresh.SetMeasured(ms)
		}
		if err := samePlan(got, fresh); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantSched, _ := fresh.ScheduleJSON()
		if js, _ := got.ScheduleJSON(); !bytes.Equal(js, wantSched) || !bytes.Equal(js, fields["schedule"]) {
			t.Fatalf("%s: schedule bytes differ from the fresh plan's or the record's", c.name)
		}
		v5, err := EncodePlan(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(v5, []byte(`"version":5`)) || bytes.Contains(v5, []byte(`"programs"`)) {
			t.Fatalf("%s: re-encoded record is not version 5: %.120s", c.name, v5)
		}
		if _, again, err := DecodePlan(v5); err != nil || samePlan(again, got) != nil {
			t.Fatalf("%s: re-encoded record decodes differently (%v)", c.name, err)
		}
	}
	_, measured, err := DecodePlan(readRecord(t, v4Records[2]))
	if err != nil {
		t.Fatal(err)
	}
	if measured.MeasuredBy("sim") == nil || measured.MeasuredBy("gort") == nil {
		t.Fatalf("measured record lost an annotation: %+v", measured.MeasuredAll())
	}
}

// TestDecodePlanIgnoresStalePrograms: the programs, makespan and
// processor count a version-4 record carries are never read. The
// committed figure 7 record at 20 iterations decodes to its schedule's
// lowering (176 instructions) and serves its schedule's makespan and
// processor count when it carries the 19-iteration plan's 167
// instructions instead, a wrong makespan or processor count, a program
// naming node 99, or an instruction past the last iteration.
func TestDecodePlanIgnoresStalePrograms(t *testing.T) {
	v4 := readRecord(t, v4Records[0])
	_, want := buildFig7Plan(t, 20)
	_, n19 := buildFig7Plan(t, 19)
	instrs := func(progs []program.Program) (n int) {
		for _, pr := range progs {
			n += len(pr.Instrs)
		}
		return n
	}
	if got := instrs(n19.Programs); got != 167 {
		t.Fatalf("19-iteration plan lowers to %d instructions, want 167", got)
	}
	const member = `,"programs":`
	at := bytes.LastIndex(v4, []byte(member))
	if at < 0 {
		t.Fatal("committed record carries no programs")
	}
	stale := append(progtest.AppendJSON(append([]byte(nil), v4[:at+len(member)]...), n19.Programs), '}')
	for name, rec := range map[string][]byte{
		"19-iteration programs":    stale,
		"wrong makespan":           bytes.Replace(v4, []byte(`"makespan":60`), []byte(`"makespan":7`), 1),
		"wrong processor count":    bytes.Replace(v4, []byte(`"procs":2`), []byte(`"procs":9`), 1),
		"program names node 99":    firstMatch(v4, regexp.MustCompile(`"Kind":0,"Node":\d+`), `"Kind":0,"Node":99`),
		"instruction past the end": firstMatch(v4, regexp.MustCompile(`"Kind":0,"Node":\d+,"Iter":\d+`), `"Kind":0,"Node":0,"Iter":20`),
	} {
		if bytes.Equal(rec, v4) {
			t.Fatalf("%s: the rewrite left the record unchanged", name)
		}
		_, got, err := DecodePlan(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := samePlan(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := instrs(got.Programs); n != 176 || got.Makespan() != 60 || got.Procs() != 2 {
			t.Fatalf("%s: %d instructions, makespan %d, %d processors; want 176, 60, 2", name, n, got.Makespan(), got.Procs())
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

// v4Records are plan records the version-4 encoder wrote, committed
// under testdata/ so the tests keep decoding real pre-version-5 bytes:
// figure 7 at 20 iterations, a grain-4 Streams(1, 4, 1) plan at 24, and
// figure 7 at 10 annotated by the sim and gort backends.
var v4Records = []string{"v4-figure7-n20.json", "v4-streams-grain4-n24.json", "v4-figure7-sim-gort-n10.json"}

// readRecord reads one committed record from testdata/.
func readRecord(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeSeeds is FuzzDecodePlan's seed corpus: records of figure 7, a
// grain-4 plan and a measured plan, the committed version-4 records and
// their version 1, 2 (sorted keys) and 3 rewrites, an indented figure 7
// record, and every corruption TestPlanCodecRejectsCorruption checks.
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
	base := encode(fig7)
	seeds := [][]byte{base, encode(grain), encode(measured)}
	v4 := readRecord(t, v4Records[0])
	for _, v := range []string{`"version":1`, `"version":3`} {
		seeds = append(seeds, bytes.Replace(v4, []byte(`"version":4`), []byte(v), 1))
	}
	// The version-2 shape: one "measured" block, keys sorted by a map
	// round trip.
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(readRecord(t, v4Records[2]), &rec); err != nil {
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
	for _, name := range v4Records {
		seeds = append(seeds, readRecord(t, name))
	}
	return seeds
}

// FuzzDecodePlan feeds DecodePlan arbitrary bytes. It must never panic;
// whatever it accepts, the reference decoder accepts too, to the same
// key and plan; an accepted plan's schedule passes Validate(true), its
// programs are the schedule's lowering and its makespan and processor
// count the schedule's; re-encoding an accepted plan decodes to the
// same plan; and an accepted plan runs on the simulated machine without
// panicking (an error, such as a deadlock, is fine).
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
		full := p.Schedule.Full
		if err := full.Validate(true); err != nil {
			t.Fatalf("accepted schedule fails Validate(true): %v", err)
		}
		if progs, err := program.Build(full); err != nil || !reflect.DeepEqual(p.Programs, progs) {
			t.Fatalf("accepted programs are not the schedule's lowering (Build error %v)", err)
		}
		if p.Makespan() != full.Makespan() || p.Procs() != full.ProcsUsed() {
			t.Fatalf("makespan %d and procs %d, schedule has %d and %d", p.Makespan(), p.Procs(), full.Makespan(), full.ProcsUsed())
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
// instruction slices from the input, cost 162 — most of them graph
// construction and fingerprinting, which the codec does not own. Since
// version 5 a record has no programs to decode, and the count includes
// Schedule.Validate(true) and program.Build on the decoded schedule:
// 161. On
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
		decodeBudget = 170 // measured 161 with validation and lowering; the reflection decoder made 289
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
