// Package store is the durable backing of the pimserve result cache: a
// content-addressed map from canonical-request digest to response bytes
// that survives process death.
//
// On disk a store is one internal/journal log, journal.jsonl: a header
// line, then one record per line, appended by Put and fsync'd per record
// when Sync is on. Put refuses a digest the store already holds, so the
// log never carries a duplicate and never needs folding or rewriting.
//
// Open replays the journal and re-verifies every record: the digest
// must equal SHA-256(canonical config bytes) and the stored response
// checksum must equal SHA-256(response bytes). A record that fails
// either check — bit rot, a torn write, a hand-edited file — is dropped
// and counted, never trusted and never fatal. A truncated trailing line
// (the process was killed mid-append) is likewise skipped with a
// counter, and the next Put lands on a line of its own.
//
// A directory written by an older build may also hold snapshot.jsonl,
// the compacted state that build kept beside its journal. Open replays
// it ahead of the journal, appends the records only it holds to the
// journal (fsync'd), and then removes it, so the fold happens once.
//
// The store degrades instead of failing: when an append errors or a Put
// would exceed the disk quota, it flips to memory-only mode — Put
// becomes a counted no-op, serving continues, and the degraded flag
// surfaces in /healthz and /metrics.
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

// DefaultMaxBytes is the disk quota when Options.MaxBytes is unset.
const DefaultMaxBytes = 256 << 20

type header struct {
	Schema string `json:"schema"`
}

var ownHeader = header{Schema: Schema}

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
	// MaxBytes bounds the journal's size (default DefaultMaxBytes). A
	// Put that would exceed it degrades the store to memory-only mode.
	MaxBytes int64
	// Sync fsyncs the journal on every Put (default on via serve; turn
	// off only for throwaway stores — an unsynced record can be lost to
	// a power failure).
	Sync bool
}

// Stats is a point-in-time store summary; serve folds it into /metrics.
type Stats struct {
	// Entries and Bytes describe the live store.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Replayed counts records warm-loaded at Open (after dedup);
	// SkippedCorrupt counts undecodable lines and SkippedVerify records
	// whose digest or checksum failed re-verification.
	Replayed       int `json:"replayed"`
	SkippedCorrupt int `json:"skipped_corrupt"`
	SkippedVerify  int `json:"skipped_verify"`
	// Persisted and Dropped count Puts since Open: appended durably vs
	// discarded (quota exhausted or degraded mode).
	Persisted uint64 `json:"persisted"`
	Dropped   uint64 `json:"dropped"`
	// Degraded is set once persistence has failed (append error or
	// quota); the store serves from memory only from then on.
	Degraded bool `json:"degraded"`
	// DegradedReason is the first failure that flipped Degraded.
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Store is the persistent result store. Safe for concurrent use.
type Store struct {
	opts Options
	path string

	mu      sync.Mutex
	digests map[string]struct{} // every digest on disk: dedup and Len
	warm    []Record            // replayed at Open, held until Each hands them out
	app     *journal.Appender   // nil once degraded or closed
	stats   Stats
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
// journal with full re-verification. It never fails on damaged records
// — only on environmental errors (directory not creatable, files
// unreadable).
func Open(opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:    opts,
		path:    filepath.Join(opts.Dir, "journal.jsonl"),
		digests: make(map[string]struct{}),
	}
	// A foreign-schema journal replays nothing; the appender replaces it
	// on the first Put. The journal is read before an older build's
	// snapshot so that the snapshot contributes only what the journal
	// lacks, yet those records replay first, as they were written first.
	rep, err := journal.Scan(s.path, ownHeader, s.replay(&s.warm))
	if err != nil {
		return nil, err
	}
	snapshot := filepath.Join(opts.Dir, "snapshot.jsonl")
	var older []Record
	snap, err := journal.Scan(snapshot, ownHeader, s.replay(&older))
	if err != nil {
		return nil, err
	}
	s.stats.SkippedCorrupt = rep.Skipped + snap.Skipped
	s.warm = append(older, s.warm...)
	s.stats.Replayed = len(s.warm)

	if snap.HeaderMatched {
		if err := s.fold(snapshot, older); err != nil {
			// The snapshot stays for the next Open to fold; its records
			// are served from memory meanwhile.
			s.degradeLocked("fold snapshot: " + err.Error())
			return s, nil
		}
	}
	app, err := journal.OpenAppender(s.path, ownHeader, opts.Sync)
	if err != nil {
		// The directory exists but the journal cannot be opened for
		// writing (permissions, read-only mount): serve memory-only.
		s.degradeLocked("open journal: " + err.Error())
		return s, nil
	}
	s.app = app
	return s, nil
}

// replay returns the journal.Scan callback that loads one line into
// *into, re-verifying it; damaged records are skipped (journal.Scan
// counts the ErrCorrupt returns, and verification failures are counted
// separately here).
func (s *Store) replay(into *[]Record) func(line []byte) error {
	return func(line []byte) error {
		var r Record
		if json.Unmarshal(line, &r) != nil {
			return journal.ErrCorrupt
		}
		if r.Verify() != nil {
			s.stats.SkippedVerify++
			return nil // counted as a verification drop, not as corrupt
		}
		if _, seen := s.digests[r.Digest]; !seen {
			s.digests[r.Digest] = struct{}{}
			*into = append(*into, r)
		}
		return nil
	}
}

// fold appends the records only an older build's snapshot holds to the
// journal, fsync'd whatever Options.Sync says, and only then removes the
// snapshot. A crash in between leaves records in both files, which the
// next Open replays once and folds nothing of.
func (s *Store) fold(snapshot string, recs []Record) error {
	app, err := journal.OpenAppender(s.path, ownHeader, true)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err = app.Append(r); err != nil {
			break
		}
	}
	if cerr := app.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Remove(snapshot)
}

// Each hands fn the records replayed at Open, in replay order, and then
// lets them go: the store keeps only their digests, so a second call
// visits nothing. It is the warm load the serve cache seeds from.
func (s *Store) Each(fn func(Record)) {
	s.mu.Lock()
	recs := s.warm
	s.warm = nil
	s.mu.Unlock()
	for _, r := range recs {
		fn(r)
	}
}

// Len returns the number of records on disk.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.digests)
}

// Put persists one result. The record is durable (fsync'd, with Sync
// on) when Put returns true; false means the store dropped it — already
// present, over quota, or degraded — and serving continues memory-only
// for this record. Put never returns an error: persistence failures
// degrade the store instead of failing the job that computed the
// result.
func (s *Store) Put(digest string, canon json.RawMessage, result []byte) bool {
	r := Record{Digest: digest, Canon: canon, Sum: sum256(result), Result: result}
	// Bytes that do not hash to their digest are never persisted: a
	// restart would refuse to load them.
	bad := r.Verify() != nil

	s.mu.Lock()
	defer s.mu.Unlock()
	if bad || s.stats.Degraded {
		s.stats.Dropped++
		return false
	}
	if _, seen := s.digests[digest]; seen {
		return false // identical by determinism; nothing to write
	}
	// Dedup, quota check and append are one step under s.mu: two Puts of
	// one digest must not both append, and two Puts that each fit the
	// quota must not together exceed it. Nothing on disk ever shrinks, so
	// a Put that does not fit degrades the store at once.
	line := int64(len(digest)+len(canon)+len(result)*4/3) + 128
	if used := s.app.Size(); used+line > s.opts.MaxBytes {
		s.degradeLocked(fmt.Sprintf("disk quota: %d bytes used of %d", used, s.opts.MaxBytes))
		s.stats.Dropped++
		return false
	}
	//pimlint:lockorder — dedup, quota check and the fsync'd append are one step: off-lock, two Puts could both append one digest or together bust the quota; s.mu leads only to Appender.mu
	if err := s.app.Append(r); err != nil {
		s.degradeLocked("append: " + err.Error())
		s.stats.Dropped++
		return false
	}
	s.digests[digest] = struct{}{}
	s.stats.Persisted++
	return true
}

func (s *Store) degradeLocked(reason string) {
	if s.stats.Degraded {
		return
	}
	s.stats.Degraded = true
	s.stats.DegradedReason = reason
	s.closeLocked()
}

// closeLocked releases the appender, keeping its last size for Stats.
func (s *Store) closeLocked() {
	if s.app == nil {
		return
	}
	s.stats.Bytes = s.app.Size()
	//pimlint:besteffort — every record Put acknowledged was written (and fsync'd, with Sync on) by its Append; the handle buffers nothing, so a close error loses no acknowledged data
	s.app.Close()
	s.app = nil
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
	st := s.stats
	st.Entries = len(s.digests)
	if s.app != nil {
		st.Bytes = s.app.Size()
	}
	return st
}

// Close releases the journal handle. Every acknowledged record is
// already in the journal, so Close writes nothing.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked()
}
