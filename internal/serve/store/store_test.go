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
	t.Cleanup(s.Close) // after the test: a reopen mid-test still models a hard kill
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

	// More Puts, a duplicate among them, then a clean Close: the journal
	// is the whole store — its header plus one line per persisted record
	// — and Close adds no byte to it.
	for i := 4; i < 8; i++ {
		d, c, r := mkRecord(i)
		s2.Put(d, c, r)
	}
	path := filepath.Join(dir, "journal.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Close wrote %d bytes", len(after)-len(before))
	}
	if n := bytes.Count(after, []byte("\n")); n != 1+8 {
		t.Fatalf("journal has %d lines, want header + 8 records", n)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("store directory holds %v (%v), want journal.jsonl alone", entries, err)
	}
	// Nothing is lost across a clean Close either.
	if s3 := openTest(t, dir, Options{Sync: true}); s3.Len() != 8 {
		t.Fatalf("reloaded %d records after Close, want 8", s3.Len())
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

// writeLog writes a store-format file by hand: the header, then recs.
func writeLog(t *testing.T, path string, hdr header, recs ...Record) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(hdr)
	for _, r := range recs {
		enc.Encode(r)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func record(i int) Record {
	d, c, r := mkRecord(i)
	return Record{Digest: d, Canon: c, Sum: sum256(r), Result: r}
}

// TestStoreSnapshotJournalOrdering pins the one-time fold of a directory
// an older build left with a compacted snapshot beside its journal: the
// snapshot's records replay first, then the journal's; a record in both
// files replays once; the snapshot is gone afterwards, its records now
// in the journal; and a reopen replays the same set.
func TestStoreSnapshotJournalOrdering(t *testing.T) {
	dir := t.TempDir()
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, record(i).Digest)
	}
	writeLog(t, filepath.Join(dir, "snapshot.jsonl"), ownHeader, record(0), record(1), record(2), record(3))
	writeLog(t, filepath.Join(dir, "journal.jsonl"), ownHeader, record(3), record(4))

	s := openTest(t, dir, Options{})
	if st := s.Stats(); st.Replayed != 5 || st.Entries != 5 || st.Degraded {
		t.Fatalf("stats = %+v, want 5 replayed", st)
	}
	var order []string
	s.Each(func(r Record) { order = append(order, r.Digest) })
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("replay order = %v, want %v (snapshot before journal, once each)", order, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.jsonl still present after the fold (%v)", err)
	}
	s.Close()

	s2 := openTest(t, dir, Options{})
	got := map[string]bool{}
	s2.Each(func(r Record) { got[r.Digest] = true })
	for _, d := range want {
		if !got[d] {
			t.Fatalf("record %s lost by the fold", d[:12])
		}
	}
	if len(got) != len(want) || s2.Stats().Replayed != len(want) {
		t.Fatalf("reopen replayed %d records, want %d", len(got), len(want))
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
	writeLog(t, filepath.Join(dir, "journal.jsonl"), header{Schema: "pimserve-store/v999"}, record(1))
	s := openTest(t, dir, Options{})
	if s.Len() != 0 {
		t.Fatalf("replayed %d records from a foreign schema", s.Len())
	}
}

// FuzzStoreReplay writes arbitrary bytes after the store header, then
// opens the store. Open must not panic; every record Each yields must
// verify; every non-blank line is either a replayed digest or counted in
// SkippedCorrupt/SkippedVerify; and a Put made after those bytes is
// replayed by the next Open.
func FuzzStoreReplay(f *testing.F) {
	var good bytes.Buffer
	enc := json.NewEncoder(&good)
	enc.Encode(record(1))
	enc.Encode(record(2))
	flipped := bytes.Replace(good.Bytes(), []byte(`"result":"ey`), []byte(`"result":"EY`), 1)
	f.Add(good.Bytes())
	f.Add(append(good.Bytes(), `{"digest":"ab`...))           // torn tail
	f.Add(flipped)                                            // checksum failure
	f.Add([]byte("not json\n\n{}\nnull\r\n" + good.String())) // garbage, then records
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		head, err := json.Marshal(ownHeader)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), append(append(head, '\n'), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, Options{})
		replayed := map[string]bool{}
		s.Each(func(r Record) {
			if err := r.Verify(); err != nil {
				t.Fatalf("replayed a record that fails Verify: %v", err)
			}
			replayed[r.Digest] = true
		})
		st := s.Stats()
		skipped := 0
		for _, l := range bytes.Split(body, []byte("\n")) {
			if l = bytes.TrimSpace(l); len(l) == 0 {
				continue
			}
			var r Record
			switch {
			case json.Unmarshal(l, &r) != nil || r.Verify() != nil:
				skipped++
			case !replayed[r.Digest]:
				t.Fatalf("valid record %s not replayed", r.Digest)
			}
		}
		if st.Replayed != len(replayed) || st.SkippedCorrupt+st.SkippedVerify != skipped {
			t.Fatalf("%d bad lines, %d distinct replayed, stats %+v", skipped, len(replayed), st)
		}

		d, c, r := mkRecord(-1)
		if replayed[d] {
			return // the input already holds the record this step appends
		}
		if !s.Put(d, c, r) {
			t.Fatalf("Put after replay refused: %+v", s.Stats())
		}
		s2 := openTest(t, dir, Options{})
		found := false
		s2.Each(func(rec Record) { found = found || rec.Digest == d })
		if st2 := s2.Stats(); !found || st2.Replayed != st.Replayed+1 {
			t.Fatalf("appended record lost: found=%v, stats %+v", found, st2)
		}
	})
}
