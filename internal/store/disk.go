// Package store provides durable and tiered implementations of the
// pipeline's PlanStore interface: DiskStore persists plans as
// content-addressed JSON records under a directory, and TieredStore
// composes a fast upper tier (typically a pipeline.MemStore) with a
// durable lower tier so plans survive process restarts — scheduling
// (and AutoTune grid sweeps) run once, and every later process serves
// the same plans from disk instead of rescheduling.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mimdloop/internal/pipeline"
)

// Filesystem layout: one file per plan, named by the SHA-256 of the full
// plan key (fingerprint + options + iterations) so arbitrary key bytes
// never reach the filesystem, with the record's own key field closing the
// loop on collisions. Writes land in a temp file first and are renamed
// into place, so a reader (or a crash) never observes a half-written
// record. Records that fail to decode are moved aside into quarantineDir
// rather than deleted — they are evidence, not garbage.
const (
	planExt       = ".plan.json"
	tmpPrefix     = ".tmp-"
	quarantineDir = "quarantine"
)

// DiskConfig configures a DiskStore.
type DiskConfig struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxBytes bounds the total size of retained plan records; exceeding
	// it garbage-collects least-recently-used records after each Put.
	// <= 0 means 1 GiB. Quarantined records do not count.
	MaxBytes int64
}

// DiskStore is a durable PlanStore: content-addressed plan records on a
// local filesystem. It is safe for concurrent use by one process. One
// mutex guards the index and its aggregates, and the only file
// operations under it are the cheap namespace ones — rename, remove,
// open — that must agree with the index. Reading and decoding a record,
// and encoding, writing and syncing one, run outside it, so a disk read
// never waits behind another read's decode or a write's fsync: the tier
// serves every memory miss, and parallel warm-up, of a restarted server.
type DiskStore struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]*diskEntry // file base name -> entry
	bytes int64
	// counters are guarded by mu too: one lock keeps the index and its
	// aggregates trivially consistent, and is held only for bookkeeping.
	hits, misses, puts, evictions, errors uint64
}

// diskEntry is the in-memory index record for one plan file.
type diskEntry struct {
	size int64
	// used orders GC: refreshed on every Get and Put. Initialized from
	// the file's mtime when the index is rebuilt at Open, so recency
	// survives restarts approximately.
	used time.Time
}

// Open returns a DiskStore over cfg.Dir, creating the directory if
// needed and indexing any plan records already present — that index scan
// is what makes a restarted process see its predecessor's plans.
func Open(cfg DiskConfig) (*DiskStore, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 30
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &DiskStore{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		index:    make(map[string]*diskEntry),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, planExt) {
			// Stray temp files from a crashed writer are dead weight.
			if strings.HasPrefix(name, tmpPrefix) {
				_ = os.Remove(filepath.Join(cfg.Dir, name))
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		d.index[name] = &diskEntry{size: info.Size(), used: info.ModTime()}
		d.bytes += info.Size()
	}
	return d, nil
}

// fileName derives the content address of a plan key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + planExt
}

// Get reads and decodes the plan stored under key. A record that fails
// to decode — torn write survived by a crash, format drift, manual
// corruption — is quarantined and reported as a miss, so one bad file
// can never take the store down or poison a key forever.
//
// The file is read and decoded outside the lock. If the index entry
// changed meanwhile (a Put replaced the record, or a Delete or GC
// removed it), a failed read or decode is a plain miss: only the entry
// that was read is ever dropped or quarantined.
func (d *DiskStore) Get(key string) (*pipeline.Plan, bool) {
	name := fileName(key)
	e, ok := d.lookup(name)
	if !ok {
		return nil, false
	}
	data, readErr := os.ReadFile(filepath.Join(d.dir, name))
	var plan *pipeline.Plan
	var decodeErr error
	if readErr == nil {
		var gotKey string
		gotKey, plan, decodeErr = pipeline.DecodePlan(data)
		if decodeErr == nil && gotKey != key {
			decodeErr = fmt.Errorf("record key %q does not match requested key %q", gotKey, key)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	current := d.index[name] == e
	switch {
	case readErr != nil:
		d.misses++
		if current {
			// The index is stale (file removed behind our back): drop it.
			d.dropLocked(name, e)
			d.errors++
		}
		return nil, false
	case decodeErr != nil:
		d.misses++
		if current {
			d.quarantineLocked(name, e)
		}
		return nil, false
	}
	e.used = time.Now()
	d.hits++
	return plan, true
}

// lookup returns the index entry for a record file, counting a miss when
// there is none.
func (d *DiskStore) lookup(name string) (*diskEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.index[name]
	if !ok {
		d.misses++
	}
	return e, ok
}

// dropLocked removes a record from the index. Caller holds d.mu.
func (d *DiskStore) dropLocked(name string, e *diskEntry) {
	delete(d.index, name)
	d.bytes -= e.size
}

// OpenRecord opens the raw encoded record stored under key, returning
// the file and its indexed size. This is the zero-copy read side of the
// record-streaming path: the server hands the file straight to the
// socket (io.Copy over an *os.File can use sendfile) instead of
// decoding and re-encoding the plan through a record-sized buffer. The
// caller owns the returned reader; the open file stays valid even if
// the record is GC'd or replaced mid-stream (the rename/remove unlinks
// the name, not the open handle). The open runs under the lock, like
// the rename that installs a record, so the size returned is the opened
// file's and never that of a record replaced in between.
func (d *DiskStore) OpenRecord(key string) (io.ReadCloser, int64, error) {
	name := fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.index[name]
	if !ok {
		d.misses++
		return nil, 0, fmt.Errorf("store: no record for key %q", key)
	}
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		// The index is stale (file removed behind our back): drop it.
		d.dropLocked(name, e)
		d.misses++
		d.errors++
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	e.used = time.Now()
	d.hits++
	return f, e.size, nil
}

// PutRecord streams an encoded plan record from r into the store under
// key. The bytes flow through a bounded copy window into a temp file —
// never into one record-sized heap buffer — then the temp file is read
// back, decode-validated exactly like Get would (key match included),
// and renamed into place. This is the write side of the streaming
// peer-fill path: a peer's record lands on disk through validation
// without being slurped whole off the wire, and the decoded plan comes
// back for the caller to serve. An invalid or mismatched record never
// enters the store.
func (d *DiskStore) PutRecord(key string, r io.Reader) (*pipeline.Plan, error) {
	tmp, size, err := d.writeTemp(r)
	var data []byte
	if err == nil {
		// Validation needs the whole record once (decode is not
		// streamable); os.ReadFile sizes its buffer from the file, so
		// this is one exact-size allocation that dies with this call.
		data, err = os.ReadFile(tmp)
	}
	var plan *pipeline.Plan
	if err == nil {
		var gotKey string
		gotKey, plan, err = pipeline.DecodePlan(data)
		if err == nil && gotKey != key {
			err = fmt.Errorf("record key %q does not match requested key %q", gotKey, key)
		}
	}
	if err != nil {
		if tmp != "" {
			_ = os.Remove(tmp)
		}
		d.countError()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := d.install(tmp, fileName(key), size); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return plan, nil
}

// writeTemp copies r into a new temp file in the store directory and
// syncs it, without the lock. On failure the temp file is removed.
func (d *DiskStore) writeTemp(r io.Reader) (tmp string, size int64, err error) {
	f, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return "", 0, err
	}
	size, err = io.Copy(f, r)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return "", 0, err
	}
	return f.Name(), size, nil
}

// install renames a synced temp file into place as the record file name
// and indexes it, then trims the store to its budget — the namespace and
// index half of a write, done together under the lock so readers see the
// file and its entry change as one.
func (d *DiskStore) install(tmp, name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.puts++
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		_ = os.Remove(tmp)
		d.errors++
		return err
	}
	if old, ok := d.index[name]; ok {
		d.bytes -= old.size
	}
	d.index[name] = &diskEntry{size: size, used: time.Now()}
	d.bytes += size
	d.gcLocked()
	return nil
}

func (d *DiskStore) countError() {
	d.mu.Lock()
	d.errors++
	d.mu.Unlock()
}

// quarantineLocked moves a corrupt record aside and drops it from the
// index. Caller holds d.mu.
func (d *DiskStore) quarantineLocked(name string, e *diskEntry) {
	d.errors++
	dst := filepath.Join(d.dir, quarantineDir, name)
	if err := os.Rename(filepath.Join(d.dir, name), dst); err != nil {
		// Rename failed (e.g. the quarantine dir was removed): delete
		// rather than serve corruption forever.
		_ = os.Remove(filepath.Join(d.dir, name))
	}
	d.dropLocked(name, e)
}

// Put encodes and durably stores p under key: the record is written to a
// temp file in the store directory and synced, outside the lock, then
// renamed into place, so concurrent readers and crash-interrupted writes
// observe either the old record or the new one — never a prefix.
func (d *DiskStore) Put(key string, p *pipeline.Plan) {
	if pipeline.PlanKey(p.GraphHash, p.Opts, p.Iterations) != key {
		// An aliased key could never be answered consistently after a
		// restart (records are verified against their ingredients), so
		// decline it rather than persist a lie.
		d.countError()
		return
	}
	data, err := pipeline.EncodePlan(p)
	if err != nil {
		d.countError()
		return
	}
	tmp, size, err := d.writeTemp(bytes.NewReader(data))
	if err != nil {
		d.countError()
		return
	}
	_ = d.install(tmp, fileName(key), size)
}

// Delete removes the record stored under key, if any.
func (d *DiskStore) Delete(key string) {
	name := fileName(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.index[name]; ok {
		_ = os.Remove(filepath.Join(d.dir, name))
		d.dropLocked(name, e)
	}
}

// gcLocked trims the store to its byte budget, least-recently-used
// records first, always keeping the most recent record. Caller holds
// d.mu. Returns how many records were removed and their total size.
func (d *DiskStore) gcLocked() (removed int, reclaimed int64) {
	if d.bytes <= d.maxBytes || len(d.index) <= 1 {
		return 0, 0
	}
	type cand struct {
		name string
		e    *diskEntry
	}
	cands := make([]cand, 0, len(d.index))
	for name, e := range d.index {
		cands = append(cands, cand{name, e})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].e.used.Before(cands[b].e.used) })
	for _, c := range cands {
		if d.bytes <= d.maxBytes || len(d.index) <= 1 {
			break
		}
		_ = os.Remove(filepath.Join(d.dir, c.name))
		delete(d.index, c.name)
		d.bytes -= c.e.size
		d.evictions++
		removed++
		reclaimed += c.e.size
	}
	return removed, reclaimed
}

// GC trims the store to its byte budget immediately (Put already does
// this incrementally; GC exists for `loopsched store gc`, which opens a
// store over an existing directory purely to shrink it). It reports how
// many records were removed and how many bytes were reclaimed.
func (d *DiskStore) GC() (removed int, reclaimed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcLocked()
}

// Len reports the number of stored plan records.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Bytes reports the total size of the stored plan records.
func (d *DiskStore) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Flush removes every stored plan record (quarantined records are kept:
// they document corruption until an operator inspects them).
func (d *DiskStore) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	for name, e := range d.index {
		if err := os.Remove(filepath.Join(d.dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(d.index, name)
		d.bytes -= e.size
	}
	return firstErr
}

// Close releases the store. Records are already durable, so this only
// bars further use of the in-memory index.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.index = nil
	return nil
}

// Stats snapshots the store's counters.
func (d *DiskStore) Stats() pipeline.StoreStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return pipeline.StoreStats{
		Kind:      "disk",
		Hits:      d.hits,
		Misses:    d.misses,
		Puts:      d.puts,
		Evictions: d.evictions,
		Errors:    d.errors,
		Entries:   len(d.index),
		Bytes:     d.bytes,
	}
}

// Plans enumerates the stored records by reading and decoding each file;
// corrupt records are quarantined along the way. This is the slow,
// operator-facing path behind GET /v1/plans and `loopsched store ls` —
// so the index is snapshotted first and all file IO runs outside the
// lock, keeping concurrent Gets and Puts from stalling behind a full
// store scan.
func (d *DiskStore) Plans() []pipeline.PlanInfo {
	type snap struct {
		name string
		e    *diskEntry
	}
	d.mu.Lock()
	snaps := make([]snap, 0, len(d.index))
	for name, e := range d.index {
		snaps = append(snaps, snap{name, e})
	}
	d.mu.Unlock()
	sort.Slice(snaps, func(a, b int) bool { return snaps[a].name < snaps[b].name })

	var out []pipeline.PlanInfo
	for _, s := range snaps {
		data, err := os.ReadFile(filepath.Join(d.dir, s.name))
		if err != nil {
			// Deleted or GC'd between snapshot and read: not an error,
			// just no longer part of the listing.
			continue
		}
		key, plan, err := pipeline.DecodePlan(data)
		if err != nil {
			d.mu.Lock()
			if d.index[s.name] == s.e {
				d.quarantineLocked(s.name, s.e)
			}
			d.mu.Unlock()
			continue
		}
		out = append(out, pipeline.PlanInfo{
			Key:        key,
			GraphHash:  plan.GraphHash,
			Options:    plan.Opts,
			Iterations: plan.Iterations,
			Rate:       plan.Rate(),
			Procs:      plan.Procs(),
			Makespan:   plan.Makespan(),
			Bytes:      int64(len(data)),
		})
	}
	return out
}
