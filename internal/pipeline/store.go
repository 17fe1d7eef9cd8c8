package pipeline

import (
	"container/list"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"

	"mimdloop/internal/core"
)

// PlanStore is the storage layer behind a Pipeline: a keyed collection of
// completed, immutable plans. The pipeline owns request-level concerns —
// key derivation, singleflight collapsing of concurrent misses, the
// hit/miss accounting of its own Stats — and the store owns retention:
// what is kept, where, and what gets dropped under pressure.
//
// Implementations must be safe for any number of concurrent callers.
// Get must never return a partially-stored plan, and Put must tolerate
// duplicate keys (replace, or keep the existing plan — both are plans for
// the same content-addressed key, so either answer is correct).
//
// The built-in implementations are MemStore (sharded LRU, the default),
// store.DiskStore (durable content-addressed files) and store.TieredStore
// (write-through memory over disk, promoting on disk hit).
type PlanStore interface {
	// Get returns the plan stored under key, or ok = false.
	Get(key string) (p *Plan, ok bool)
	// Put stores a completed plan under key. A store with a size budget
	// may decline to retain it (an oversized plan is served, not cached).
	Put(key string, p *Plan)
	// Delete removes the plan stored under key, if any.
	Delete(key string)
	// Len reports how many plans the store currently holds.
	Len() int
	// Bytes reports the store's approximate retained size in bytes.
	Bytes() int64
	// Flush empties the store.
	Flush() error
	// Close releases the store's resources. The store is unusable after.
	Close() error
	// Stats snapshots the store's counters (and, for composite stores,
	// those of each tier).
	Stats() StoreStats
}

// PlanLister is implemented by stores that can enumerate their contents;
// the HTTP /v1/plans endpoints and `loopsched store ls` require it. All
// built-in stores implement it.
type PlanLister interface {
	// Plans returns a summary of every stored plan. The order is
	// unspecified.
	Plans() []PlanInfo
}

// RecordOpener is implemented by stores that hold plans as durable
// encoded records and can hand out a raw reader over one: the server's
// GET /v1/plans/{fingerprint}?key= handler streams the record straight
// to the socket through it, skipping the decode/re-encode round trip
// (and the record-sized response buffer) of the Get + EncodePlan path.
// store.DiskStore implements it over its content-addressed files, and
// store.TieredStore delegates to whichever tier can answer.
type RecordOpener interface {
	// OpenRecord returns a reader over the encoded plan record stored
	// under key, plus the record's size in bytes. The caller must Close
	// the reader. Stores that hold the plan but not as a raw record
	// (e.g. the memory tier) return an error; the caller falls back to
	// Get.
	OpenRecord(key string) (io.ReadCloser, int64, error)
}

// PlanInfo is one stored plan's summary, as listed by a PlanLister and
// served by GET /v1/plans/{fingerprint}.
type PlanInfo struct {
	// Key is the full plan key (fingerprint + options + iterations).
	Key string `json:"key"`
	// GraphHash is the graph-content half of the key.
	GraphHash string `json:"graph_hash"`
	// Options and Iterations complete the key.
	Options    core.Options `json:"options"`
	Iterations int          `json:"iterations"`
	// Rate, Procs and Makespan summarize the plan.
	Rate     float64 `json:"rate_cycles_per_iteration"`
	Procs    int     `json:"procs"`
	Makespan int     `json:"makespan"`
	// Bytes is the plan's approximate in-memory footprint.
	Bytes int64 `json:"bytes"`
}

// StoreStats is a point-in-time snapshot of one store's behaviour. For
// composite stores, Tiers holds one nested snapshot per tier, upper tier
// first.
type StoreStats struct {
	// Kind names the implementation: "memory", "disk", "peer" or
	// "tiered".
	Kind string `json:"kind"`
	// Hits and Misses count Get outcomes against this store.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts Put calls that reached this store.
	Puts uint64 `json:"puts"`
	// Evictions counts plans dropped under size pressure (LRU eviction,
	// disk GC) — not explicit Deletes.
	Evictions uint64 `json:"evictions"`
	// Promotes counts lower-tier hits copied into an upper tier
	// (TieredStore only).
	Promotes uint64 `json:"promotes,omitempty"`
	// Errors counts corrupt or unreadable entries quarantined by a
	// durable store.
	Errors uint64 `json:"errors,omitempty"`
	// Entries and Bytes mirror Len() and Bytes().
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Tiers nests the per-tier snapshots of a composite store.
	Tiers []StoreStats `json:"tiers,omitempty"`
}

// Tier returns the (depth-first) first snapshot of the given kind,
// searching this store and its nested tiers.
func (s StoreStats) Tier(kind string) (StoreStats, bool) {
	if s.Kind == kind {
		return s, true
	}
	for _, t := range s.Tiers {
		if found, ok := t.Tier(kind); ok {
			return found, true
		}
	}
	return StoreStats{}, false
}

// TotalEvictions sums eviction counts across this store and all tiers.
func (s StoreStats) TotalEvictions() uint64 {
	n := s.Evictions
	for _, t := range s.Tiers {
		n += t.TotalEvictions()
	}
	return n
}

// planBytes estimates a plan's resident size: placements dominate (the
// composed schedule plus the pattern copies), with the lowered
// instruction streams second. The estimate only has to be monotone and
// stable — it is a budget weight, not an allocator measurement. The
// evaluation memo's fixed size is counted whether or not it was
// allocated, so a plan weighs the same from Put to eviction.
func planBytes(p *Plan) int64 {
	const (
		planBase      = 512
		memoSize      = int64(unsafe.Sizeof(evalMemo{}))
		placementSize = 32
		instrSize     = 24
	)
	n := int64(planBase) + memoSize
	if p.Schedule != nil && p.Schedule.Full != nil {
		n += placementSize * int64(len(p.Schedule.Full.Placements))
	}
	for i := range p.Programs {
		n += instrSize * int64(len(p.Programs[i].Instrs))
	}
	return n
}

// maxMemShards caps lock striping; small stores use fewer shards so the
// configured MaxEntries is honored exactly.
const maxMemShards = 16

// MemConfig bounds a MemStore.
type MemConfig struct {
	// MaxEntries bounds stored plans across all shards. <= 0 means 1024.
	MaxEntries int
	// MaxBytes bounds the approximate resident plan bytes across all
	// shards (see planBytes). <= 0 means 256 MiB. A shard always keeps
	// its most recent entry even when that entry alone exceeds the
	// budget — except that a plan larger than a whole shard budget is
	// never retained at all (keeping it would drain every warm entry
	// without ever fitting).
	MaxBytes int64
}

// MemStore is the in-memory PlanStore: a sharded, size-weighted LRU. It
// is the pipeline's default store and the upper tier of the serving
// TieredStore. Locking is striped per shard (FNV-32a of the key) so
// concurrent readers of different keys never contend on one mutex.
type MemStore struct {
	shards []memShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
}

// memShard is one lock-striped LRU segment.
type memShard struct {
	mu       sync.Mutex
	limit    int   // per-shard entry capacity; shard limits sum to MaxEntries
	maxBytes int64 // per-shard byte budget; shard budgets sum to MaxBytes
	bytes    int64
	entries  map[string]*list.Element // key -> element whose Value is *memEntry
	order    *list.List               // front = most recently used
}

// memEntry is one stored plan with its budget weight.
type memEntry struct {
	key   string
	plan  *Plan
	bytes int64
}

// NewMemStore returns an empty memory store.
func NewMemStore(cfg MemConfig) *MemStore {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	n := maxMemShards
	if cfg.MaxEntries < n {
		n = cfg.MaxEntries
	}
	m := &MemStore{shards: make([]memShard, n)}
	// Distribute capacity so shard limits sum to exactly MaxEntries, and
	// likewise for the byte budget.
	for i := range m.shards {
		sh := &m.shards[i]
		sh.limit = cfg.MaxEntries / n
		if i < cfg.MaxEntries%n {
			sh.limit++
		}
		sh.maxBytes = cfg.MaxBytes / int64(n)
		if int64(i) < cfg.MaxBytes%int64(n) {
			sh.maxBytes++
		}
		sh.entries = make(map[string]*list.Element)
		sh.order = list.New()
	}
	return m
}

func (m *MemStore) shard(key string) *memShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &m.shards[h.Sum32()%uint32(len(m.shards))]
}

// Get returns the stored plan and refreshes its recency.
func (m *MemStore) Get(key string) (*Plan, bool) {
	sh := m.shard(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		m.misses.Add(1)
		return nil, false
	}
	sh.order.MoveToFront(el)
	p := el.Value.(*memEntry).plan
	sh.mu.Unlock()
	m.hits.Add(1)
	return p, true
}

// Put stores p under key, replacing any previous plan, then trims the
// shard to its budgets. A plan that alone exceeds the whole shard budget
// is not retained.
func (m *MemStore) Put(key string, p *Plan) {
	m.puts.Add(1)
	w := planBytes(p)
	sh := m.shard(key)
	sh.mu.Lock()
	if w > sh.maxBytes {
		// Never cache what can never fit; evict a stale duplicate so the
		// map does not keep serving an entry Put was asked to replace.
		evicted := sh.removeLocked(key)
		sh.mu.Unlock()
		m.evictions.Add(evicted)
		return
	}
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*memEntry)
		sh.bytes += w - e.bytes
		e.plan, e.bytes = p, w
		sh.order.MoveToFront(el)
	} else {
		sh.entries[key] = sh.order.PushFront(&memEntry{key: key, plan: p, bytes: w})
		sh.bytes += w
	}
	evicted := sh.evictLocked()
	sh.mu.Unlock()
	m.evictions.Add(evicted)
}

// Delete removes the plan stored under key.
func (m *MemStore) Delete(key string) {
	sh := m.shard(key)
	sh.mu.Lock()
	sh.removeLocked(key)
	sh.mu.Unlock()
}

// removeLocked drops key from the shard, reporting 1 if it was present.
// Caller holds sh.mu.
func (sh *memShard) removeLocked(key string) uint64 {
	el, ok := sh.entries[key]
	if !ok {
		return 0
	}
	sh.bytes -= el.Value.(*memEntry).bytes
	sh.order.Remove(el)
	delete(sh.entries, key)
	return 1
}

// evictLocked trims the shard to its entry capacity and byte budget
// (always keeping at least one entry) and returns how many were dropped.
// Caller holds sh.mu.
func (sh *memShard) evictLocked() uint64 {
	var n uint64
	for sh.order.Len() > sh.limit ||
		(sh.bytes > sh.maxBytes && sh.order.Len() > 1) {
		el := sh.order.Back()
		e := el.Value.(*memEntry)
		sh.order.Remove(el)
		delete(sh.entries, e.key)
		sh.bytes -= e.bytes
		n++
	}
	return n
}

// Len reports the stored plan count.
func (m *MemStore) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// Bytes reports the approximate resident plan bytes.
func (m *MemStore) Bytes() int64 {
	var n int64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Flush empties the store. It never fails.
func (m *MemStore) Flush() error {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*list.Element)
		sh.order.Init()
		sh.bytes = 0
		sh.mu.Unlock()
	}
	return nil
}

// Close releases nothing: a MemStore holds only heap memory.
func (m *MemStore) Close() error { return nil }

// Stats snapshots the store's counters.
func (m *MemStore) Stats() StoreStats {
	s := StoreStats{
		Kind:      "memory",
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Puts:      m.puts.Load(),
		Evictions: m.evictions.Load(),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		s.Entries += sh.order.Len()
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// Plans enumerates the stored plans.
func (m *MemStore) Plans() []PlanInfo {
	var out []PlanInfo
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*memEntry)
			out = append(out, planInfo(e.key, e.plan, e.bytes))
		}
		sh.mu.Unlock()
	}
	return out
}

// planInfo builds one listing row from a stored plan.
func planInfo(key string, p *Plan, bytes int64) PlanInfo {
	return PlanInfo{
		Key:        key,
		GraphHash:  p.GraphHash,
		Options:    p.Opts,
		Iterations: p.Iterations,
		Rate:       p.Rate(),
		Procs:      p.Procs(),
		Makespan:   p.Makespan(),
		Bytes:      bytes,
	}
}
