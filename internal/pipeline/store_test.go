package pipeline

import (
	"bytes"
	"fmt"
	"regexp"
	"sync"
	"testing"

	"mimdloop/internal/workload"
)

// buildFig7Plan builds one uncached Figure 7 plan for store-level tests.
func buildFig7Plan(t testing.TB, n int) (key string, p *Plan) {
	t.Helper()
	g := workload.Figure7().Graph
	plan, _, err := New(Config{DisableCache: true}).Schedule(g, fig7Opts, n)
	if err != nil {
		t.Fatal(err)
	}
	return PlanKey(g.Fingerprint(), fig7Opts, n), plan
}

func TestMemStoreBasics(t *testing.T) {
	m := NewMemStore(MemConfig{})
	key, plan := buildFig7Plan(t, 20)

	if _, ok := m.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	m.Put(key, plan)
	got, ok := m.Get(key)
	if !ok || got != plan {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if m.Len() != 1 || m.Bytes() != planBytes(plan) {
		t.Fatalf("Len=%d Bytes=%d", m.Len(), m.Bytes())
	}

	s := m.Stats()
	if s.Kind != "memory" || s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}

	infos := m.Plans()
	if len(infos) != 1 || infos[0].Key != key || infos[0].GraphHash != plan.GraphHash ||
		infos[0].Rate != plan.Rate() || infos[0].Bytes != planBytes(plan) {
		t.Fatalf("plans = %+v", infos)
	}

	// Put replaces in place (same key, new plan value).
	_, plan2 := buildFig7Plan(t, 20)
	m.Put(key, plan2)
	if got, _ := m.Get(key); got != plan2 {
		t.Fatal("replacement Put kept the old plan")
	}
	if m.Len() != 1 {
		t.Fatalf("replacement changed Len to %d", m.Len())
	}

	m.Delete(key)
	if _, ok := m.Get(key); ok || m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("after Delete: ok=%v Len=%d Bytes=%d", ok, m.Len(), m.Bytes())
	}
	m.Delete(key) // deleting a missing key is a no-op

	m.Put(key, plan)
	if err := m.Flush(); err != nil || m.Len() != 0 {
		t.Fatalf("Flush: err=%v Len=%d", err, m.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestStoreStatsTier(t *testing.T) {
	s := StoreStats{Kind: "tiered", Evictions: 1, Tiers: []StoreStats{
		{Kind: "memory", Hits: 3, Evictions: 2},
		{Kind: "disk", Hits: 7, Evictions: 4},
	}}
	disk, ok := s.Tier("disk")
	if !ok || disk.Hits != 7 {
		t.Fatalf("Tier(disk) = %+v, %v", disk, ok)
	}
	if _, ok := s.Tier("tape"); ok {
		t.Fatal("unknown tier found")
	}
	if got := s.TotalEvictions(); got != 7 {
		t.Fatalf("TotalEvictions = %d", got)
	}
}

// TestPlanCodecRoundTrip pins the durable record format: a decoded plan
// reports the same key, summary accessors, pattern block, program count
// and byte-identical schedule JSON as the original.
func TestPlanCodecRoundTrip(t *testing.T) {
	key, plan := buildFig7Plan(t, 30)
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("key %q != %q", gotKey, key)
	}
	if got.GraphHash != plan.GraphHash || got.Opts != plan.Opts || got.Iterations != plan.Iterations {
		t.Fatalf("key ingredients differ: %+v", got)
	}
	if got.Rate() != plan.Rate() || got.Procs() != plan.Procs() || got.Makespan() != plan.Makespan() {
		t.Fatalf("summary differs: rate %v/%v procs %d/%d makespan %d/%d",
			got.Rate(), plan.Rate(), got.Procs(), plan.Procs(), got.Makespan(), plan.Makespan())
	}
	wantPat, gotPat := plan.Pattern(), got.Pattern()
	if wantPat == nil || gotPat == nil || *wantPat != *gotPat {
		t.Fatalf("pattern %+v != %+v", gotPat, wantPat)
	}
	if len(got.Programs) != len(plan.Programs) {
		t.Fatalf("programs %d != %d", len(got.Programs), len(plan.Programs))
	}
	js1, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := got.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("schedule JSON not byte-identical after a codec round trip")
	}
	if got.Schedule.CyclicProcs != plan.Schedule.CyclicProcs ||
		got.Schedule.Folded != plan.Schedule.Folded ||
		got.Schedule.GreedyFallback != plan.Schedule.GreedyFallback {
		t.Fatal("processor accounting differs after a codec round trip")
	}
	// Encoding the decoded plan reproduces the record byte for byte.
	data2, err := EncodePlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoded record not byte-identical")
	}
}

// planCorruptions are record mutations DecodePlan must reject, applied
// to an encoded Figure 7 plan at 10 iterations.
var planCorruptions = map[string]func([]byte) []byte{
	"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
	"not json":     func(b []byte) []byte { return []byte("not a record") },
	"wrong format": func(b []byte) []byte { return bytes.Replace(b, []byte("mimdloop/plan"), []byte("other/format"), 1) },
	"wrong version": func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"version":4`), []byte(`"version":99`), 1)
	},
	"key mismatch": func(b []byte) []byte {
		// Change the recorded iteration count without re-deriving the
		// key: the ingredients check must catch the inconsistency.
		return bytes.Replace(b, []byte(`"iterations":10`), []byte(`"iterations":11`), 1)
	},
	"schedule tampered under intact header": func(b []byte) []byte {
		// Rename a node inside the embedded schedule only: the
		// re-derived graph fingerprint must contradict GraphHash.
		return bytes.Replace(b, []byte(`"name":"A"`), []byte(`"name":"Z"`), 1)
	},
	// Indices outside the 5-node graph would panic the first evaluation
	// that ran the plan (index out of range [99]).
	"program names node 99": func(b []byte) []byte {
		return firstMatch(b, regexp.MustCompile(`"Kind":0,"Node":\d+`), `"Kind":0,"Node":99`)
	},
	"placement names node 99": func(b []byte) []byte {
		return firstMatch(b, regexp.MustCompile(`\{"node":\d+`), `{"node":99`)
	},
	// Iteration 10 of a 10-iteration plan: the goroutine runtime's
	// chunked send would size its value block negative.
	"instruction past the last iteration": func(b []byte) []byte {
		return firstMatch(b, regexp.MustCompile(`"Kind":0,"Node":\d+,"Iter":\d+`), `"Kind":0,"Node":0,"Iter":10`)
	},
}

func TestPlanCodecRejectsCorruption(t *testing.T) {
	_, plan := buildFig7Plan(t, 10)
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range planCorruptions {
		bad := mutate(append([]byte(nil), data...))
		if bytes.Equal(bad, data) {
			t.Errorf("%s mutation left the record unchanged", name)
		}
		if _, _, err := DecodePlan(bad); err == nil {
			t.Errorf("%s record decoded without error", name)
		}
	}
}

// TestEvictionRacesSingleflight hammers a byte-starved store from many
// goroutines (run under -race in CI): evictions chase the singleflight
// loads, so freshly-stored plans are dropped while identical keys are
// still in flight. Every request must still come back with a correct
// plan, and the store must stay within its budget.
func TestEvictionRacesSingleflight(t *testing.T) {
	// Four single-entry shards under six distinct keys: the pigeonhole
	// guarantees shard collisions, so evictions chase the loads no matter
	// how the keys hash. The byte budget admits one plan per shard.
	w := fig7PlanBytes(t, 25)
	p := New(Config{MaxEntries: 4, MaxBytes: 4 * (w + w/4)})
	g := workload.Figure7().Graph

	const (
		goroutines = 12
		rounds     = 10
		distinctN  = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 20 + (gi+r)%distinctN
				plan, _, err := p.Schedule(g, fig7Opts, n)
				if err != nil {
					errs <- err
					return
				}
				if plan.Rate() != 3 || plan.Iterations != n {
					errs <- fmt.Errorf("wrong plan at n=%d: rate=%v iters=%d", n, plan.Rate(), plan.Iterations)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits+s.Misses != goroutines*rounds {
		t.Fatalf("requests accounted = %d, want %d", s.Hits+s.Misses, goroutines*rounds)
	}
	// Under this much pressure plans are evicted and recomputed; the
	// store must end within its budget with at least one eviction seen.
	if s.Evictions == 0 {
		t.Fatal("no evictions under a one-plan-per-shard budget")
	}
	if budget := 4 * (w + w/4); s.Store.Bytes > budget {
		t.Fatalf("store bytes %d over the %d budget", s.Store.Bytes, budget)
	}
}
