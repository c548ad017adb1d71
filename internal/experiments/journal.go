package experiments

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// JournalSchema versions the checkpoint format; bump on incompatible
// change.
const JournalSchema = "pimsim-journal/v1"

// PairKey is the canonical journal key of one competitive combination.
func PairKey(gpuID, pimID, policy string, mode config.VCMode) string {
	return fmt.Sprintf("%s_%s_%s_%s", gpuID, pimID, policy, mode)
}

type journalHeader struct {
	Schema     string  `json:"schema"`
	ConfigHash string  `json:"config_hash"`
	Scale      float64 `json:"scale"`
}

// journalEntry is one journal line: a finished pair under its key.
// Journals written before failures stopped being journaled also hold
// "failed" lines; they replay as not done.
type journalEntry struct {
	Key    string `json:"key"`
	Status string `json:"status"`
	Pair   *Pair  `json:"pair,omitempty"`
}

// Journal checkpoints a campaign's finished pairs so an interrupted
// sweep resumes where it left off. On disk it is an internal/journal
// log: a header binding it to the config (hash + scale), then one
// {"key","status":"done","pair"} line per finished pair, appended and
// fsync'd as the pair finishes, so a kill loses at most the pair being
// written. In memory it is the map of finished pairs. Safe for
// concurrent use by parallel workers.
type Journal struct {
	app  *journal.Appender
	mu   sync.Mutex // guards done
	done map[string]Pair
}

// OpenJournal loads (or initializes) the journal at path for a campaign
// over the given config and scale. Existing entries are kept only when
// the header matches this campaign's config hash and scale — a journal
// from a different config (including a different fault schedule, which
// changes the hash) is discarded rather than trusted, and replaced once
// this campaign records its first pair. Damaged lines are skipped:
// every intact entry survives.
func OpenJournal(path string, cfg config.Config, scale float64) (*Journal, error) {
	hdr := journalHeader{Schema: JournalSchema, ConfigHash: telemetry.HashConfig(cfg), Scale: scale}
	j := &Journal{done: make(map[string]Pair)}
	_, err := journal.Scan(path, hdr, func(line []byte) error {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil || e.Key == "" {
			return journal.ErrCorrupt
		}
		if e.Status == "done" && e.Pair != nil {
			j.done[e.Key] = *e.Pair
		}
		return nil
	})
	if err == nil {
		j.app, err = journal.OpenAppender(path, hdr, true)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return j, nil
}

// LookupDone returns the journaled Pair of a finished combination.
// Combinations never journaled as done return ok=false, so resume
// re-runs exactly those.
func (j *Journal) LookupDone(key string) (Pair, bool) {
	if j == nil {
		return Pair{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.done[key]
	return p, ok
}

// RecordDone journals a finished pair, durably when it returns nil; a
// pair already journaled is not written again. The pair's live
// telemetry collector is stripped (it does not serialize; per-pair JSONL
// captures are written separately), so a resumed campaign reproduces the
// numeric results exactly — JSON round-trips float64 losslessly — minus
// the in-memory telemetry handle.
func (j *Journal) RecordDone(key string, p Pair) error {
	if j == nil {
		return nil
	}
	p.Telemetry = nil
	j.mu.Lock()
	_, dup := j.done[key]
	j.done[key] = p
	j.mu.Unlock()
	if dup {
		return nil
	}
	//pimlint:nondet — journaled pairs carry the run Manifest (wall-time provenance); result digests and resumed figure data read only the deterministic Pair fields
	if err := j.app.Append(journalEntry{Key: key, Status: "done", Pair: &p}); err != nil {
		return fmt.Errorf("experiments: journal write: %w", err)
	}
	return nil
}

// Close releases the journal file; every recorded pair is already on
// disk.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.app.Close()
}
