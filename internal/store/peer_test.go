package store

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mimdloop/internal/pipeline"
)

// goldenRingPeers / goldenRingVNodes / goldenRingOwners pin the
// consistent-hash ring: a fixed peer set and fingerprint corpus map to
// this exact ownership table. Any change to the point derivation, the
// hash, or the virtual-node layout reshuffles ownership across a live
// cluster (every node's cache of peer-owned plans goes stale at once),
// so it must show up here as a reviewed diff, never ride in silently.
var (
	goldenRingPeers  = []string{"alpha:9001", "beta:9002", "gamma:9003"}
	goldenRingVNodes = 128
	goldenRingOwners = map[string]string{
		"c694e8c364eee73c|{Processors:1 CommCost:1}|n50":  "beta:9002",
		"c694e9c364eee8ef|{Processors:2 CommCost:2}|n60":  "alpha:9001",
		"c694eac364eeeaa2|{Processors:3 CommCost:3}|n70":  "beta:9002",
		"c694ebc364eeec55|{Processors:4 CommCost:1}|n80":  "alpha:9001",
		"c694e4c364eee070|{Processors:1 CommCost:2}|n90":  "beta:9002",
		"c694e5c364eee223|{Processors:2 CommCost:3}|n100": "beta:9002",
		"c694e6c364eee3d6|{Processors:3 CommCost:1}|n110": "beta:9002",
		"c694e7c364eee589|{Processors:4 CommCost:2}|n120": "alpha:9001",
		"c694f0c364eef4d4|{Processors:1 CommCost:3}|n130": "alpha:9001",
		"c694f1c364eef687|{Processors:2 CommCost:1}|n140": "gamma:9003",
		"5df2160481f5b2ed|{Processors:3 CommCost:2}|n150": "beta:9002",
		"5df2150481f5b13a|{Processors:4 CommCost:3}|n160": "beta:9002",
		"5df2140481f5af87|{Processors:1 CommCost:1}|n170": "alpha:9001",
		"5df2130481f5add4|{Processors:2 CommCost:2}|n180": "alpha:9001",
		"5df2120481f5ac21|{Processors:3 CommCost:3}|n190": "beta:9002",
		"5df2110481f5aa6e|{Processors:4 CommCost:1}|n200": "beta:9002",
	}
)

func TestRingGolden(t *testing.T) {
	r, err := NewRing(goldenRingPeers, goldenRingVNodes)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range goldenRingOwners {
		if got := r.Owner(key); got != want {
			t.Errorf("Owner(%q) = %q, want %q — the ring layout changed; "+
				"this reshuffles ownership across a live cluster", key, got, want)
		}
	}
}

// TestRingBalance guards the point derivation's spread: each of three
// peers owns a roughly fair share of a large synthetic key corpus.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(goldenRingPeers, 0) // DefaultVNodes
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	fair := keys / len(goldenRingPeers)
	for peer, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("peer %s owns %d of %d keys (fair share %d)", peer, n, keys, fair)
		}
	}
}

// TestRingStabilityOnPeerRemoval is the consistent-hashing property:
// dropping one peer moves only the keys that peer owned.
func TestRingStabilityOnPeerRemoval(t *testing.T) {
	full, err := NewRing(goldenRingPeers, goldenRingVNodes)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing(goldenRingPeers[:2], goldenRingVNodes)
	if err != nil {
		t.Fatal(err)
	}
	removed := goldenRingPeers[2]
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owner(key)
		if before == removed {
			continue
		}
		if after := reduced.Owner(key); after != before {
			t.Fatalf("key %q moved %s -> %s though %s was the removed peer", key, before, after, removed)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty peer set accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 8); err == nil {
		t.Error("empty peer name accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 8); err == nil {
		t.Error("duplicate peer accepted")
	}
}

// peerTransport routes logical peer names to live httptest listeners
// and injects transport failures for peers marked down — the same
// shape the cluster harness uses, reduced to one hop.
type peerTransport struct {
	mu    sync.Mutex
	addrs map[string]string // logical name -> live host:port
	down  map[string]bool
}

func newPeerTransport() *peerTransport {
	return &peerTransport{addrs: make(map[string]string), down: make(map[string]bool)}
}

func (pt *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pt.mu.Lock()
	addr, ok := pt.addrs[req.URL.Host]
	isDown := pt.down[req.URL.Host]
	pt.mu.Unlock()
	if isDown || !ok {
		return nil, fmt.Errorf("peer %s unreachable", req.URL.Host)
	}
	req = req.Clone(req.Context())
	req.URL.Host = addr
	return http.DefaultTransport.RoundTrip(req)
}

func (pt *peerTransport) setAddr(name, addr string) {
	pt.mu.Lock()
	pt.addrs[name] = addr
	pt.mu.Unlock()
}

func (pt *peerTransport) setDown(name string, down bool) {
	pt.mu.Lock()
	pt.down[name] = down
	pt.mu.Unlock()
}

// newTestPeer builds a two-node view from "self"'s side with fast
// retry/breaker timings, routing "other" through tr.
func newTestPeer(t *testing.T, tr http.RoundTripper) *PeerStore {
	t.Helper()
	p, err := NewPeer(PeerConfig{
		Self:            "self",
		Peers:           []string{"self", "other"},
		Transport:       tr,
		FetchTimeout:    2 * time.Second,
		ForwardTimeout:  2 * time.Second,
		Retries:         1,
		Backoff:         time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// keyOwnedBy searches Figure 7 plan keys (varying n) for one the given
// peer owns, returning the key and its plan.
func keyOwnedBy(t *testing.T, r *Ring, peer string) (string, *pipeline.Plan) {
	t.Helper()
	for n := 20; n < 200; n++ {
		key, plan := buildPlan(t, n)
		if r.Owner(key) == peer {
			return key, plan
		}
	}
	t.Fatalf("no Figure 7 key owned by %s in the probed range", peer)
	return "", nil
}

func TestPeerStoreSelfOwnedKeyMissesWithoutNetwork(t *testing.T) {
	// No transport routes exist, so any network attempt would error; a
	// self-owned key must miss instantly without one.
	p := newTestPeer(t, newPeerTransport())
	key, _ := keyOwnedBy(t, p.Ring(), "self")
	if _, ok := p.Get(key); ok {
		t.Fatal("self-owned key filled from a peer")
	}
	s := p.Stats()
	if s.Misses != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want one clean miss", s)
	}
}

func TestPeerStoreFillsByteIdenticalPlan(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, plan := keyOwnedBy(t, p.Ring(), "other")
	rec, err := pipeline.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	var gotPath, gotKey, gotHdr string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		gotKey = r.URL.Query().Get("key")
		gotHdr = r.Header.Get(pipeline.PeerFetchHeader)
		w.Write(rec)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	filled, ok := p.Get(key)
	if !ok {
		t.Fatal("peer-owned key not filled")
	}
	if gotHdr != "self" {
		t.Fatalf("peer fetch header = %q, want the caller's name", gotHdr)
	}
	if gotKey != key {
		t.Fatalf("fetched key = %q, want %q", gotKey, key)
	}
	if want := "/v1/plans/" + key[:bytes.IndexByte([]byte(key), '|')]; gotPath != want {
		t.Fatalf("fetched path = %q, want %q", gotPath, want)
	}
	wantJSON, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := filled.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("filled plan's schedule JSON is not byte-identical to the owner's")
	}
	if s := p.Stats(); s.Hits != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeerStoreRejectsCorruptOrMismatchedRecord(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, _ := keyOwnedBy(t, p.Ring(), "other")

	body := []byte("garbage")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	if _, ok := p.Get(key); ok {
		t.Fatal("undecodable record served as a fill")
	}
	// A valid record for a different key must be rejected too.
	otherKey, otherPlan := buildPlan(t, 201)
	if otherKey == key {
		t.Fatal("probe key collided")
	}
	rec, err := pipeline.EncodePlan(otherPlan)
	if err != nil {
		t.Fatal(err)
	}
	body = rec
	if _, ok := p.Get(key); ok {
		t.Fatal("record for a different key served as a fill")
	}
	if s := p.ClusterStats(); s.FillErrors != 2 || s.Fills != 0 {
		t.Fatalf("cluster stats = %+v", s)
	}
}

// TestNewerRecordVersionFallsBackToCompute: a record of a version
// this node does not read (as a version-5 record is to a version-4
// node in a rolling upgrade) is refused as a peer fill and by
// PutRecord, leaving nothing behind, and the pipeline computes the
// plan locally.
func TestNewerRecordVersionFallsBackToCompute(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, plan := keyOwnedBy(t, p.Ring(), "other")
	rec, err := pipeline.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	newer := bytes.Replace(rec, []byte(`"version":5`), []byte(`"version":6`), 1)
	if bytes.Equal(newer, rec) {
		t.Fatal("record is not version 5")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(newer)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	disk, err := Open(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disk.PutRecord(key, bytes.NewReader(newer)); err == nil {
		t.Fatal("PutRecord accepted a newer record version")
	}
	if disk.Len() != 0 {
		t.Fatal("refused record entered the store")
	}
	pipe := pipeline.New(pipeline.Config{
		Store: NewTiered(pipeline.NewMemStore(pipeline.MemConfig{}), NewTiered(p, disk)),
	})
	defer pipe.Close()
	got, hit, err := pipe.Schedule(plan.Schedule.Graph, plan.Opts, plan.Iterations)
	if err != nil || hit {
		t.Fatalf("Schedule: hit=%v err=%v", hit, err)
	}
	if got.Rate() != plan.Rate() || pipe.Stats().Computes != 1 {
		t.Fatalf("local compute: rate %v, stats %+v", got.Rate(), pipe.Stats())
	}
	if s := p.ClusterStats(); s.FillErrors != 1 || s.Fills != 0 {
		t.Fatalf("cluster stats = %+v", s)
	}
}

func TestPeerStore404IsAMissNotAFailure(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, _ := keyOwnedBy(t, p.Ring(), "other")

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such plan", http.StatusNotFound)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	// Far more 404s than the breaker threshold: an owner that simply has
	// not scheduled the key yet must never be treated as unhealthy.
	for i := 0; i < 10; i++ {
		if _, ok := p.Get(key); ok {
			t.Fatal("404 served as a fill")
		}
	}
	s := p.ClusterStats()
	if s.FillMisses != 10 || s.FillErrors != 0 || s.BreakerSkips != 0 || len(s.BreakerOpen) != 0 {
		t.Fatalf("cluster stats = %+v", s)
	}
}

func TestPeerStoreRetriesTransportFailures(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, plan := keyOwnedBy(t, p.Ring(), "other")
	rec, err := pipeline.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	// The transport fails the first attempt of each operation, then the
	// listener serves the retry.
	var calls atomic.Int64
	flaky := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("connection reset")
		}
		return tr.RoundTrip(req)
	})
	p2 := newTestPeer(t, flaky)
	_ = p
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(rec)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	if _, ok := p2.Get(key); !ok {
		t.Fatal("fill did not survive one transport failure")
	}
	if calls.Load() != 2 {
		t.Fatalf("transport saw %d attempts, want 2", calls.Load())
	}
	// The retried success reset the failure streak: no breaker state.
	if s := p2.ClusterStats(); s.Fills != 1 || s.FillErrors != 0 || len(s.BreakerOpen) != 0 {
		t.Fatalf("cluster stats = %+v", s)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func TestPeerStoreBreakerOpensAndRecovers(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, plan := keyOwnedBy(t, p.Ring(), "other")
	rec, err := pipeline.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(rec)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())
	tr.setDown("other", true)

	// Two failed operations (each retried once) reach the threshold.
	for i := 0; i < 2; i++ {
		if _, ok := p.Get(key); ok {
			t.Fatal("down peer served a fill")
		}
	}
	s := p.ClusterStats()
	if s.FillErrors != 2 || len(s.BreakerOpen) != 1 || s.BreakerOpen[0] != "other" {
		t.Fatalf("breaker not open after threshold: %+v", s)
	}
	// While open, calls are skipped outright — no transport traffic.
	if _, ok := p.Get(key); ok {
		t.Fatal("open breaker served a fill")
	}
	if s := p.ClusterStats(); s.BreakerSkips == 0 {
		t.Fatalf("no breaker skip counted: %+v", s)
	}

	// After the cooldown the next call probes the recovered peer and the
	// breaker closes.
	tr.setDown("other", false)
	time.Sleep(100 * time.Millisecond)
	if _, ok := p.Get(key); !ok {
		t.Fatal("recovered peer not probed after cooldown")
	}
	if s := p.ClusterStats(); len(s.BreakerOpen) != 0 {
		t.Fatalf("breaker still open after successful probe: %+v", s)
	}
}

func TestPeerStoreForwardProxiesOwnerReply(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, _ := keyOwnedBy(t, p.Ring(), "other")

	reply := []byte(`{"loop":"x"}` + "\n")
	var status atomic.Int64
	status.Store(http.StatusOK)
	var gotForwarded, gotBody atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwarded.Store(r.Header.Get(pipeline.ForwardedHeader))
		b := new(bytes.Buffer)
		b.ReadFrom(r.Body)
		gotBody.Store(b.String())
		w.WriteHeader(int(status.Load()))
		w.Write(reply)
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	st, body, ok := p.Forward(key, []byte(`{"loop":"..."}`))
	if !ok || st != http.StatusOK || !bytes.Equal(body, reply) {
		t.Fatalf("forward: ok=%v status=%d body=%q", ok, st, body)
	}
	if gotForwarded.Load() != "self" {
		t.Fatalf("forwarded header = %q, want the caller's name", gotForwarded.Load())
	}
	if gotBody.Load() != `{"loop":"..."}` {
		t.Fatalf("owner saw body %q", gotBody.Load())
	}

	// An owner-side client error (bad request) is proxied verbatim, not
	// recomputed locally: the request would fail identically here.
	status.Store(http.StatusBadRequest)
	st, _, ok = p.Forward(key, []byte("{}"))
	if !ok || st != http.StatusBadRequest {
		t.Fatalf("4xx not proxied: ok=%v status=%d", ok, st)
	}

	// An owner-side 5xx means degrade: ok=false, caller computes.
	status.Store(http.StatusInternalServerError)
	if _, _, ok := p.Forward(key, []byte("{}")); ok {
		t.Fatal("owner 5xx reported as a proxied success")
	}
	s := p.ClusterStats()
	if s.Forwards != 2 || s.ForwardErrors != 1 {
		t.Fatalf("cluster stats = %+v", s)
	}

	// A self-owned key is never forwarded.
	selfKey, _ := keyOwnedBy(t, p.Ring(), "self")
	if _, _, ok := p.Forward(selfKey, []byte("{}")); ok {
		t.Fatal("self-owned key forwarded")
	}
}

func TestPeerStoreForwardSingleflight(t *testing.T) {
	tr := newPeerTransport()
	p := newTestPeer(t, tr)
	key, _ := keyOwnedBy(t, p.Ring(), "other")

	var posts atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			close(entered)
		}
		<-release
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	tr.setAddr("other", srv.Listener.Addr().String())

	const callers = 8
	var wg sync.WaitGroup
	results := make([]bool, callers)
	bodies := make([][]byte, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			_, body, ok := p.Forward(key, []byte("{}"))
			results[i], bodies[i] = ok, body
		}(i)
	}
	// One caller reaches the owner; give the rest a moment to pile onto
	// the in-flight request, then let it finish.
	<-entered
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if posts.Load() != 1 {
		t.Fatalf("owner saw %d POSTs for one key, want 1", posts.Load())
	}
	for i := 0; i < callers; i++ {
		if !results[i] || !bytes.Equal(bodies[i], []byte("ok\n")) {
			t.Fatalf("caller %d: ok=%v body=%q", i, results[i], bodies[i])
		}
	}
}

func TestPeerConfigValidation(t *testing.T) {
	if _, err := NewPeer(PeerConfig{Peers: []string{"a", "b"}}); err == nil {
		t.Error("missing Self accepted")
	}
	if _, err := NewPeer(PeerConfig{Self: "c", Peers: []string{"a", "b"}}); err == nil {
		t.Error("Self outside the peer set accepted")
	}
	if _, err := NewPeer(PeerConfig{Self: "a", Peers: nil}); err == nil {
		t.Error("empty peer set accepted")
	}
}
