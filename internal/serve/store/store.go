// Package store is the durable backing of the pimserve result cache: a
// content-addressed map from canonical-request digest to response bytes
// that survives process death.
//
// On disk a store is two JSONL files built on internal/journal:
//
//   - snapshot.jsonl — the compacted state, rewritten atomically (temp
//     file + rename, fsync'd) by Compact;
//   - journal.jsonl — the append-only write-ahead log of records Put
//     since the last compaction, fsync'd per record when Sync is on.
//
// Open replays the snapshot first, then the journal (newer records win,
// though by construction any duplicate carries identical bytes — the
// simulator is deterministic). Every record is re-verified on load:
// the digest must equal SHA-256(canonical config bytes) and the stored
// response checksum must equal SHA-256(response bytes). A record that
// fails either check — bit rot, a torn write, a hand-edited file — is
// dropped and counted, never trusted and never fatal. A truncated
// trailing journal line (the process was killed mid-append) is likewise
// skipped with a counter, and the next Put lands on a line of its own.
//
// The store degrades instead of failing: when an append errors or the
// disk quota is exhausted even after compaction, it flips to memory-only
// mode — Put becomes a counted no-op, serving continues, and the
// degraded flag surfaces in /healthz and /metrics.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/journal"
)

// Schema versions the on-disk format; bump on incompatible change.
const Schema = "pimserve-store/v1"

type header struct {
	Schema string `json:"schema"`
}

// Record is one persisted result: the canonical config (exact bytes the
// digest hashes), the response, and the response checksum.
type Record struct {
	Digest string          `json:"digest"`
	Canon  json.RawMessage `json:"canon"`
	Sum    string          `json:"sum"`
	Result []byte          `json:"result"`
}

// Options shape a store; zero values pick the documented defaults.
type Options struct {
	// Dir is the store directory (created if absent). Required.
	Dir string
	// MaxBytes bounds snapshot + journal disk use (default 256 MiB).
	// When a Put would exceed it the store compacts; if still over, it
	// degrades to memory-only mode.
	MaxBytes int64
	// CompactEvery triggers compaction after this many journal records
	// (default 512).
	CompactEvery int
	// Sync fsyncs the journal on every Put (default on via serve; turn
	// off only for throwaway stores — an unsynced record can be lost to
	// a hard kill).
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 512
	}
	return o
}

// Stats is a point-in-time store summary; serve folds it into /metrics.
type Stats struct {
	// Entries and Bytes describe the live store.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Replayed counts records warm-loaded at Open (snapshot + journal,
	// after dedup); SkippedCorrupt counts undecodable lines and
	// SkippedVerify records whose digest or checksum failed
	// re-verification.
	Replayed       int `json:"replayed"`
	SkippedCorrupt int `json:"skipped_corrupt"`
	SkippedVerify  int `json:"skipped_verify"`
	// Persisted and Dropped count Puts since Open: appended durably vs
	// discarded (quota exhausted or degraded mode).
	Persisted uint64 `json:"persisted"`
	Dropped   uint64 `json:"dropped"`
	// Compactions counts snapshot rewrites since Open.
	Compactions uint64 `json:"compactions"`
	// Degraded is set once persistence has failed (append error or
	// quota); the store serves from memory only from then on.
	Degraded bool `json:"degraded"`
	// DegradedReason is the first failure that flipped Degraded.
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Store is the persistent result store. Safe for concurrent use.
type Store struct {
	opts         Options
	snapshotPath string
	journalPath  string

	mu            sync.Mutex
	records       map[string]Record
	order         []string // insertion order, for deterministic compaction
	app           *journal.Appender
	snapshotBytes int64
	sinceCompact  int
	stats         Stats
}

// sum256 is the store's checksum: hex SHA-256, the same primitive the
// serve digest uses, so verification needs no serve import.
func sum256(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// Verify checks a record's internal consistency: the digest must be the
// content address of the canonical config bytes and the checksum must
// match the response bytes.
func (r Record) Verify() error {
	if r.Digest == "" || len(r.Result) == 0 {
		return fmt.Errorf("store: empty record")
	}
	if got := sum256(r.Canon); got != r.Digest {
		return fmt.Errorf("store: digest mismatch: record %s, canon hashes to %s", r.Digest, got)
	}
	if got := sum256(r.Result); got != r.Sum {
		return fmt.Errorf("store: checksum mismatch for %s", r.Digest)
	}
	return nil
}

// Open loads (or initializes) the store in opts.Dir, replaying the
// snapshot and then the journal with full re-verification. It never
// fails on damaged records — only on environmental errors (directory
// not creatable, files unreadable).
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:         opts,
		snapshotPath: filepath.Join(opts.Dir, "snapshot.jsonl"),
		journalPath:  filepath.Join(opts.Dir, "journal.jsonl"),
		records:      make(map[string]Record),
	}

	// Replay order matters: snapshot (older) first, journal (newer)
	// second, so a record present in both resolves to the journaled one.
	// A foreign-schema file replays nothing; the journal's appender
	// replaces it on the first Put, and the snapshot is rewritten whole.
	for _, path := range []string{s.snapshotPath, s.journalPath} {
		rep, err := journal.Scan(path, header{Schema: Schema}, s.replay)
		if err != nil {
			return nil, err
		}
		s.stats.SkippedCorrupt += rep.Skipped
	}
	s.stats.Replayed = len(s.records)

	if st, err := os.Stat(s.snapshotPath); err == nil {
		s.snapshotBytes = st.Size()
	}
	app, err := journal.OpenAppender(s.journalPath, header{Schema: Schema}, opts.Sync)
	if err != nil {
		// The directory exists but the journal cannot be opened for
		// writing (permissions, read-only mount): serve memory-only.
		s.degradeLocked("open journal: " + err.Error())
		return s, nil
	}
	s.app = app
	s.refreshSizeLocked()
	return s, nil
}

// replay loads one journal/snapshot line, re-verifying it; damaged
// records are skipped (journal.Scan counts the ErrCorrupt returns, and
// verification failures are counted separately here).
func (s *Store) replay(line []byte) error {
	var r Record
	if json.Unmarshal(line, &r) != nil {
		return journal.ErrCorrupt
	}
	if err := r.Verify(); err != nil {
		s.stats.SkippedVerify++
		return nil // counted as a verification drop, not as corrupt
	}
	if _, seen := s.records[r.Digest]; !seen {
		s.order = append(s.order, r.Digest)
	}
	s.records[r.Digest] = r
	return nil
}

// Each returns the live records in deterministic (insertion) order —
// the warm-load iteration the serve cache seeds from.
func (s *Store) Each(fn func(Record)) {
	s.mu.Lock()
	digests := append([]string(nil), s.order...)
	recs := make([]Record, 0, len(digests))
	for _, d := range digests {
		recs = append(recs, s.records[d])
	}
	s.mu.Unlock()
	for _, r := range recs {
		fn(r)
	}
}

// Len returns the live record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Put persists one result. The record is durable (fsync'd, with Sync
// on) when Put returns true; false means the store dropped it — already
// present, over quota, or degraded — and serving continues memory-only
// for this record. Put never returns an error: persistence failures
// degrade the store instead of failing the job that computed the
// result.
func (s *Store) Put(digest string, canon json.RawMessage, result []byte) bool {
	r := Record{Digest: digest, Canon: canon, Sum: sum256(result), Result: result}
	if err := r.Verify(); err != nil {
		// The caller handed us bytes that do not hash to their digest;
		// never persist what a restart would refuse to load.
		s.mu.Lock()
		s.stats.Dropped++
		s.mu.Unlock()
		return false
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.Degraded {
		s.stats.Dropped++
		return false
	}
	if _, seen := s.records[digest]; seen {
		return false // identical by determinism; nothing to write
	}

	// Disk quota: estimate the appended line, compact if it would bust
	// the bound (dedup + dropping the double-counted journal usually
	// shrinks), and degrade if it still does not fit.
	// Everything below — quota check, compaction, journal append — runs
	// under s.mu on purpose: an off-lock append could interleave with a
	// concurrent compaction's journal reset and lose an acknowledged
	// record. The lock hierarchy is one-way (Store.mu -> Appender.mu,
	// never back), so the held fsyncs stall writers but cannot deadlock.
	line := int64(len(digest)+len(canon)+len(result)*4/3) + 128
	if s.sizeLocked()+line > s.opts.MaxBytes {
		//pimlint:lockorder — quota compaction must see the same record set the append below extends
		s.compactLocked()
		if s.sizeLocked()+line > s.opts.MaxBytes {
			s.degradeLocked(fmt.Sprintf("disk quota: %d bytes used of %d", s.sizeLocked(), s.opts.MaxBytes))
			s.stats.Dropped++
			return false
		}
	}

	//pimlint:lockorder — persist-before-fulfill: the fsync'd append must serialize with compaction under s.mu or a record can be lost to a concurrent journal reset
	if err := s.app.Append(r); err != nil {
		s.degradeLocked("append: " + err.Error())
		s.stats.Dropped++
		return false
	}
	s.records[digest] = r
	s.order = append(s.order, digest)
	s.stats.Persisted++
	s.sinceCompact++
	if s.sinceCompact >= s.opts.CompactEvery {
		//pimlint:lockorder — periodic compaction snapshots the record set it just extended; same serialization argument as above
		s.compactLocked()
	}
	s.refreshSizeLocked()
	return true
}

// Compact folds the journal into a fresh snapshot: the full record set
// is rewritten atomically to snapshot.jsonl, then the journal is reset
// to a bare header. A kill between the two steps only leaves records
// present in both files — replay dedup makes that harmless.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pimlint:lockorder — snapshot rewrite + journal reset must be atomic w.r.t. Put; s.mu leads only to Appender.mu
	s.compactLocked()
}

func (s *Store) compactLocked() {
	if s.stats.Degraded {
		return
	}
	err := journal.Rewrite(s.snapshotPath, header{Schema: Schema}, func(enc *json.Encoder) error {
		for _, d := range s.order {
			if err := enc.Encode(s.records[d]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		s.degradeLocked("compact snapshot: " + err.Error())
		return
	}
	// Snapshot is durable; now the journal may be emptied.
	if s.app != nil {
		//pimlint:besteffort — every journaled record is already folded into the fsync'd snapshot; a close failure cannot lose acknowledged data
		s.app.Close()
		s.app = nil
	}
	if err := journal.Rewrite(s.journalPath, header{Schema: Schema}, nil); err != nil {
		s.degradeLocked("compact journal reset: " + err.Error())
		return
	}
	app, err := journal.OpenAppender(s.journalPath, header{Schema: Schema}, s.opts.Sync)
	if err != nil {
		s.degradeLocked("compact reopen: " + err.Error())
		return
	}
	s.app = app
	s.sinceCompact = 0
	s.stats.Compactions++
	if st, err := os.Stat(s.snapshotPath); err == nil {
		s.snapshotBytes = st.Size()
	}
	s.refreshSizeLocked()
}

func (s *Store) degradeLocked(reason string) {
	if s.stats.Degraded {
		return
	}
	s.stats.Degraded = true
	s.stats.DegradedReason = reason
	if s.app != nil {
		//pimlint:besteffort — best-effort teardown on the way into degraded memory-only mode; the store already stopped promising durability
		s.app.Close()
		s.app = nil
	}
}

func (s *Store) sizeLocked() int64 {
	sz := s.snapshotBytes
	if s.app != nil {
		sz += s.app.Size()
	}
	return sz
}

func (s *Store) refreshSizeLocked() {
	s.stats.Bytes = s.sizeLocked()
	s.stats.Entries = len(s.records)
}

// Degraded reports whether persistence has failed and the store is
// memory-only.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Degraded
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshSizeLocked()
	return s.stats
}

// Close compacts once (folding the journal into the snapshot so the
// next Open replays one clean file) and releases the journal handle.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pimlint:lockorder — final compaction must exclude concurrent Puts while the journal handle is torn down
	s.compactLocked()
	if s.app != nil {
		//pimlint:besteffort — compactLocked just folded the journal into the fsync'd snapshot (or degraded the store); the handle holds no unpersisted data
		s.app.Close()
		s.app = nil
	}
}
