package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/doacross"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
	"mimdloop/internal/program/progtest"
	"mimdloop/internal/workload"
)

// simDigest is the sha256 of every corpus case's Stats, 3-trial
// TrialStats and error text, computed with the map-based simulator that
// ref_test.go keeps as the reference. A simulator change that moves a
// single cycle of any corpus run changes it.
const simDigest = "2b8731c07a9090d409df6eb4c2854866ec5988fa3cd0e5fe763ca706dd0e754c"

// simCase is one corpus entry: a program set and the machine
// configuration it runs under.
type simCase struct {
	name  string
	g     *graph.Graph
	progs []program.Program
	cfg   Config
}

// corpusConfigs are the machine shapes the corpus rotates through:
// fluctuation off, mm 3 and 5 under positive, negative and full-width
// seeds, FIFO links, and the true communication cost overridden to 0
// and to 7.
var corpusConfigs = []Config{
	{},
	{Fluct: 3, Seed: 1},
	{Fluct: 5, Seed: -7},
	{Fluct: 3, Seed: -1 << 40, LinkFIFO: true},
	{Fluct: 5, Seed: 42, LinkFIFO: true},
	{Fluct: 3, Seed: 9, Override: true},
	{Override: true, OverrideCost: 7},
	{Fluct: 5, Seed: -3, LinkFIFO: true, Override: true, OverrideCost: 7},
}

var (
	corpusOnce  sync.Once
	corpusCases []simCase
	corpusErr   error
)

// simCorpus returns the corpus the reference and digest tests share:
// the first 30 Section 4 random loops, the paper's figures, Livermore 18,
// the elliptic filter, and a Streams and a Braid family, each scheduled
// at n in {7, 60, 100} and grain 0 and 4 on a rotating processor budget
// in {sufficient, 2, 4, 8}; their DOACROSS programs; and deadlock and
// duplicate-send mutations. Each program set meets two machine shapes.
func simCorpus(t testing.TB) []simCase {
	t.Helper()
	corpusOnce.Do(func() { corpusCases, corpusErr = buildCorpus() })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusCases
}

func buildCorpus() ([]simCase, error) {
	type named struct {
		name string
		g    *graph.Graph
	}
	var graphs []named
	for seed := int64(1); seed <= 30; seed++ {
		g, err := workload.Random(workload.PaperSpec, seed)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, named{fmt.Sprintf("random-%d", seed), g})
	}
	streams, err := workload.Streams(3, 4, 2)
	if err != nil {
		return nil, err
	}
	braid, err := workload.Braid(6, 2, 1)
	if err != nil {
		return nil, err
	}
	graphs = append(graphs,
		named{"fig1", workload.Figure1()}, named{"fig3", workload.Figure3()},
		named{"fig7", workload.Figure7().Graph}, named{"fig9", workload.Figure9()},
		named{"livermore18", workload.Livermore18().Graph}, named{"elliptic", workload.Elliptic().Graph},
		named{"streams", streams}, named{"braid", braid})

	var cases []simCase
	rot := 0
	add := func(name string, g *graph.Graph, progs []program.Program, grain int) {
		for i := 0; i < 2; i++ {
			ci := rot % len(corpusConfigs)
			rot++
			cfg := corpusConfigs[ci]
			cfg.Grain = grain
			cases = append(cases, simCase{fmt.Sprintf("%s/cfg%d", name, ci), g, progs, cfg})
		}
	}
	procs := []int{0, 2, 4, 8}
	for gi, ng := range graphs {
		for ni, n := range []int{7, 60, 100} {
			for _, grain := range []int{0, 4} {
				p := procs[(gi+ni+grain)%len(procs)]
				opts := core.Options{Processors: p, CommCost: 2 + (gi+ni)%2, Grain: grain}
				ls, err := core.ScheduleLoop(ng.g, opts, n)
				if err != nil {
					if grain > 1 {
						continue // the loop does not chunk at this grain
					}
					return nil, fmt.Errorf("%s n=%d: %w", ng.name, n, err)
				}
				progs, err := program.Build(ls.Full)
				if err != nil {
					return nil, fmt.Errorf("%s n=%d grain=%d: %w", ng.name, n, grain, err)
				}
				name := fmt.Sprintf("%s/n%d/p%d/g%d", ng.name, n, p, grain)
				add(name, ng.g, progs, grain)
				if n == 60 && grain == 0 {
					for _, m := range progtest.Mutations {
						if mp := m.Apply(progs); mp != nil {
							add(name+"/"+m.Name, ng.g, mp, 0)
						}
					}
				}
			}
		}
		da, err := doacross.Schedule(ng.g, doacross.Options{MaxProcessors: procs[gi%len(procs)], CommCost: 3, HeuristicReorder: gi%2 == 0}, 60)
		if err != nil {
			return nil, fmt.Errorf("%s doacross: %w", ng.name, err)
		}
		progs, err := program.Build(da.Schedule)
		if err != nil {
			return nil, fmt.Errorf("%s doacross: %w", ng.name, err)
		}
		add(ng.name+"/doacross", ng.g, progs, 0)
	}
	return cases, nil
}

// TestRunMatchesReference runs every corpus case on Run and RunTrials
// and on the map-based references: Stats and 3-trial TrialStats must be
// deep-equal and error texts identical.
func TestRunMatchesReference(t *testing.T) {
	cases := simCorpus(t)
	deadlocks := 0
	for _, c := range cases {
		got, gerr := Run(c.g, c.progs, c.cfg)
		want, werr := refRun(c.g, c.progs, c.cfg)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Run = %+v, %v; reference %+v, %v", c.name, got, gerr, want, werr)
		}
		if werr != nil {
			deadlocks++
		}
		gotT, gerr := RunTrials(c.g, c.progs, c.cfg, 3)
		wantT, werr := refRunTrials(c.g, c.progs, c.cfg, 3)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("%s: RunTrials = %+v, %v; reference %+v, %v", c.name, gotT, gerr, wantT, werr)
		}
	}
	t.Logf("%d cases, %d deadlocks", len(cases), deadlocks)
	if deadlocks == 0 {
		t.Fatal("no corpus case deadlocked; the mutations exercise nothing")
	}
}

// TestSimulatorDigest pins the corpus's simulated timings and errors to
// simDigest.
func TestSimulatorDigest(t *testing.T) {
	h := sha256.New()
	for _, c := range simCorpus(t) {
		stats, err := Run(c.g, c.progs, c.cfg)
		fmt.Fprintf(h, "%s run %+v %v\n", c.name, stats, err)
		ts, err := RunTrials(c.g, c.progs, c.cfg, 3)
		fmt.Fprintf(h, "%s trials %+v %v\n", c.name, ts, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simDigest {
		t.Fatalf("simulator digest %s, want %s", got, simDigest)
	}
}

// TestFluctDelayMatchesFNV compares the inline FNV-64a, FluctModel.Delay
// and TrialSeed with the hash/fnv references over keys and seeds whose
// fields are negative, zero, one byte wide, with zero bytes between
// non-zero ones, and full width.
func TestFluctDelayMatchesFNV(t *testing.T) {
	fields := []int{0, 1, 7, 255, 256, 65535, 0x10001, 1 << 24, 1<<31 - 1, 1 << 40, -1, -256, -1 << 40, 1<<63 - 1, -1 << 63}
	seeds := []int64{0, 1, -1, 255, 1 << 33, -1 << 40, 1<<63 - 1, -1 << 63}
	for _, seed := range seeds {
		for _, f := range fields {
			for _, g := range fields {
				want := refFNV(seed, int64(f), int64(g), 3, int64(f))
				if got := fnvWord(fnvWord(fnvWord(fnvWord(fnvWord(fnvOffset, seed), int64(f)), int64(g)), 3), int64(f)); got != want {
					t.Fatalf("FNV-64a of seed %d, words %d %d 3 %d = %#x, hash/fnv %#x", seed, f, g, f, got, want)
				}
			}
		}
	}
	for _, mm := range []int{0, 1, 2, 3, 5, 1 << 20} {
		for _, seed := range seeds {
			m := FluctModel{MM: mm, Seed: seed}
			for i, f := range fields {
				g := fields[(i*5+3)%len(fields)]
				for _, key := range []program.MsgKey{
					{Node: f, Iter: g, From: 0, To: 1},
					{Node: 1, Iter: f, From: g, To: 0},
					{Node: g, Iter: 0, From: 2, To: f},
					{Node: f, Iter: f, From: f, To: f},
				} {
					if got, want := m.Delay(key), refDelay(m, key); got != want {
						t.Fatalf("%+v.Delay(%+v) = %d, reference %d", m, key, got, want)
					}
				}
			}
		}
	}
	for _, seed := range seeds {
		for _, trial := range []int{0, 1, 2, 255, 256, 1 << 40, -1} {
			if got, want := TrialSeed(seed, trial), refTrialSeed(seed, trial); got != want {
				t.Fatalf("TrialSeed(%d, %d) = %d, reference %d", seed, trial, got, want)
			}
		}
	}
}
