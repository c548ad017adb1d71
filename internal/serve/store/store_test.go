package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// mkRecord builds a self-consistent record: digest = SHA-256(canon),
// sum = SHA-256(result) — exactly what serve persists.
func mkRecord(i int) (digest string, canon json.RawMessage, result []byte) {
	canon = json.RawMessage(fmt.Sprintf(`{"kind":"competitive","seed":%d}`, i))
	result = []byte(fmt.Sprintf(`{"digest":"ignored","cycles":%d}`, 1000+i))
	return sum256(canon), canon, result
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStorePutReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: true})
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		d, c, r := mkRecord(i)
		if !s.Put(d, c, r) {
			t.Fatalf("Put %d refused", i)
		}
		want[d] = r
	}
	// Duplicate Put is a no-op, not a second journal record.
	d0, c0, r0 := mkRecord(0)
	if s.Put(d0, c0, r0) {
		t.Fatal("duplicate Put persisted again")
	}
	st := s.Stats()
	if st.Persisted != 5 || st.Entries != 5 || st.Degraded {
		t.Fatalf("stats = %+v", st)
	}
	// No Close: simulate a hard kill. The journal was fsync'd per Put.
	s2 := openTest(t, dir, Options{Sync: true})
	st2 := s2.Stats()
	if st2.Replayed != 5 || st2.SkippedCorrupt != 0 || st2.SkippedVerify != 0 {
		t.Fatalf("reload stats = %+v", st2)
	}
	got := 0
	s2.Each(func(r Record) {
		if !bytes.Equal(want[r.Digest], r.Result) {
			t.Fatalf("record %s bytes differ after reload", r.Digest)
		}
		got++
	})
	if got != 5 {
		t.Fatalf("Each visited %d records", got)
	}
}

// TestStoreCorruption is the table-driven damage matrix the ISSUE
// requires: every form of file damage loads cleanly, drops only the
// damaged records, and counts what it dropped.
func TestStoreCorruption(t *testing.T) {
	seed := func(t *testing.T, dir string) (digests []string) {
		s := openTest(t, dir, Options{Sync: true})
		for i := 0; i < 3; i++ {
			d, c, r := mkRecord(i)
			if !s.Put(d, c, r) {
				t.Fatalf("seed Put %d", i)
			}
			digests = append(digests, d)
		}
		// No Close — journal only, no snapshot, like a killed daemon.
		return digests
	}

	cases := []struct {
		name        string
		damage      func(t *testing.T, dir string)
		wantEntries int
		wantCorrupt int
		wantVerify  int
	}{
		{
			name: "truncated-tail-entry",
			damage: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "journal.jsonl")
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteString(`{"digest":"abcd","canon":{"k":1},"sum":"12`)
				f.Close()
			},
			wantEntries: 3,
			wantCorrupt: 1,
		},
		{
			name: "bit-flipped-response-body",
			damage: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "journal.jsonl")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Flip one byte inside the last record's base64 result
				// payload: the line still parses, the checksum must catch
				// it.
				idx := bytes.LastIndex(data, []byte(`"result":"`))
				if idx < 0 {
					t.Fatal("no result field found")
				}
				i := idx + len(`"result":"`) + 2
				switch data[i] {
				case 'A':
					data[i] = 'B'
				default:
					data[i] = 'A'
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEntries: 2,
			wantVerify:  1,
		},
		{
			name: "empty-journal-file",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEntries: 0,
		},
		{
			name: "garbage-line-then-good-tail",
			damage: func(t *testing.T, dir string) {
				// WAL semantics: a corrupt middle line must not take the
				// records after it down with it.
				path := filepath.Join(dir, "journal.jsonl")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.SplitAfter(data, []byte("\n"))
				if len(lines) < 4 {
					t.Fatalf("journal has %d lines", len(lines))
				}
				lines[2] = []byte("!! not json !!\n") // second record
				if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEntries: 2,
			wantCorrupt: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			digests := seed(t, dir)
			tc.damage(t, dir)
			s := openTest(t, dir, Options{Sync: true})
			st := s.Stats()
			if st.Entries != tc.wantEntries || st.SkippedCorrupt != tc.wantCorrupt || st.SkippedVerify != tc.wantVerify {
				t.Fatalf("stats = %+v, want entries=%d corrupt=%d verify=%d",
					st, tc.wantEntries, tc.wantCorrupt, tc.wantVerify)
			}
			if st.Degraded {
				t.Fatalf("damage degraded the store: %+v", st)
			}
			// Surviving records are the originals, byte-identical.
			s.Each(func(r Record) {
				if err := r.Verify(); err != nil {
					t.Fatalf("loaded record fails verify: %v", err)
				}
			})
			// The store keeps accepting writes after damage recovery, and
			// an acknowledged one survives the next crash (no Close).
			d, c, r := mkRecord(99)
			if !s.Put(d, c, r) {
				t.Fatal("post-recovery Put refused")
			}
			s2 := openTest(t, dir, Options{Sync: true})
			found := false
			s2.Each(func(rec Record) { found = found || rec.Digest == d })
			if !found || s2.Len() != tc.wantEntries+1 {
				t.Fatalf("acknowledged record %s lost after second crash (%d records, want %d)", d[:12], s2.Len(), tc.wantEntries+1)
			}
			_ = digests
		})
	}
}

// TestStoreSnapshotJournalOrdering pins the replay order: snapshot
// first, then journal, with journal records overriding (and duplicates
// deduplicating, not double-counting).
func TestStoreSnapshotJournalOrdering(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: true})
	var digests []string
	for i := 0; i < 4; i++ {
		d, c, r := mkRecord(i)
		s.Put(d, c, r)
		digests = append(digests, d)
	}
	s.Compact() // 4 records now live in the snapshot
	d4, c4, r4 := mkRecord(4)
	s.Put(d4, c4, r4) // lives only in the journal
	digests = append(digests, d4)
	st := s.Stats()
	if st.Compactions != 1 {
		t.Fatalf("stats = %+v, want 1 compaction", st)
	}
	// Hard kill (no Close), reload: snapshot + journal union.
	s2 := openTest(t, dir, Options{Sync: true})
	if got := s2.Len(); got != 5 {
		t.Fatalf("reloaded %d records, want 5", got)
	}
	var order []string
	s2.Each(func(r Record) { order = append(order, r.Digest) })
	for i, d := range digests {
		if order[i] != d {
			t.Fatalf("replay order[%d] = %s, want %s (snapshot before journal)", i, order[i], d)
		}
	}
}

// TestStoreCompactionThreshold checks automatic compaction folds the
// journal into the snapshot and that nothing is lost across it.
func TestStoreCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: false, CompactEvery: 3})
	for i := 0; i < 7; i++ {
		d, c, r := mkRecord(i)
		s.Put(d, c, r)
	}
	st := s.Stats()
	if st.Compactions != 2 { // after records 3 and 6
		t.Fatalf("compactions = %d, want 2 (stats %+v)", st.Compactions, st)
	}
	s.Close() // third compaction
	s2 := openTest(t, dir, Options{Sync: false, CompactEvery: 3})
	if s2.Len() != 7 {
		t.Fatalf("reloaded %d records, want 7", s2.Len())
	}
	// After Close-compaction the journal is a bare header.
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(bytes.TrimSpace(data), []byte("\n")); n != 0 {
		t.Fatalf("journal not reset after Close: %d extra lines", n)
	}
}

// TestStoreQuotaDegrades fills a tiny quota and checks the store sheds
// persistence (memory-only) instead of erroring, and that a reload
// still serves everything that made it to disk.
func TestStoreQuotaDegrades(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: false, MaxBytes: 600})
	persisted := 0
	for i := 0; i < 50; i++ {
		d, c, r := mkRecord(i)
		if s.Put(d, c, r) {
			persisted++
		}
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("tiny quota did not degrade: %+v", st)
	}
	if persisted == 0 || st.Dropped == 0 {
		t.Fatalf("persisted=%d dropped=%d, want both nonzero", persisted, st.Dropped)
	}
	// Degraded Puts are no-ops, not errors; the store still answers.
	if s.Len() < persisted {
		t.Fatalf("Len %d < persisted %d", s.Len(), persisted)
	}
	s2 := openTest(t, dir, Options{Sync: false, MaxBytes: 1 << 20})
	if s2.Len() != persisted || s2.Degraded() {
		t.Fatalf("reload: %d records (want %d), degraded=%v", s2.Len(), persisted, s2.Degraded())
	}
}

// TestStorePutRefusesInconsistentRecord: bytes that do not hash to
// their digest are never persisted (a restart would drop them anyway).
func TestStorePutRefusesInconsistentRecord(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	_, c, r := mkRecord(1)
	if s.Put("00deadbeef", c, r) {
		t.Fatal("Put accepted a digest that does not match its canon bytes")
	}
	if st := s.Stats(); st.Dropped != 1 || st.Persisted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreSchemaMismatchDiscards: a journal from a different schema
// version is discarded wholesale, not misread.
func TestStoreSchemaMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	d, c, r := mkRecord(1)
	rec := Record{Digest: d, Canon: c, Sum: sum256(r), Result: r}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(header{Schema: "pimserve-store/v999"})
	enc.Encode(rec)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if s.Len() != 0 {
		t.Fatalf("replayed %d records from a foreign schema", s.Len())
	}
}
