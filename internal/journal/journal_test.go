package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type testHeader struct {
	Schema string `json:"schema"`
	Tag    string `json:"tag"`
}

type testRecord struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

func scanAll(t *testing.T, path string, hdr testHeader) ([]testRecord, ScanReport) {
	t.Helper()
	var got []testRecord
	rep, err := Scan(path, hdr, func(line []byte) error {
		var r testRecord
		if json.Unmarshal(line, &r) != nil || r.Key == "" {
			return ErrCorrupt
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got, rep
}

// appendRaw writes bytes to the end of path the way a killed or foreign
// writer would, bypassing the Appender.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendAll appends recs through a fresh Appender and closes it.
func appendAll(t *testing.T, path string, hdr testHeader, recs ...testRecord) {
	t.Helper()
	a, err := OpenAppender(path, hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	hdr := testHeader{Schema: "test/v1", Tag: "a"}

	a, err := OpenAppender(path, hdr, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"x", "y", "z"} {
		if err := a.Append(testRecord{Key: k, N: i}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := os.Stat(path)
	if a.Size() != st.Size() {
		t.Fatalf("Size() = %d, file is %d", a.Size(), st.Size())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep := scanAll(t, path, hdr)
	if !rep.HeaderMatched || rep.Entries != 3 || rep.Skipped != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(got) != 3 || got[0].Key != "x" || got[2].N != 2 {
		t.Fatalf("records = %+v", got)
	}

	// Reopening an existing journal must not rewrite the header.
	appendAll(t, path, hdr, testRecord{Key: "w", N: 3})
	got, rep = scanAll(t, path, hdr)
	if rep.Entries != 4 || got[3].Key != "w" {
		t.Fatalf("after reopen: %+v / %+v", rep, got)
	}
}

func TestScanMissingFile(t *testing.T) {
	got, rep := scanAll(t, filepath.Join(t.TempDir(), "absent.jsonl"), testHeader{})
	if rep.HeaderMatched || rep.Entries != 0 || rep.Skipped != 0 || len(got) != 0 {
		t.Fatalf("missing file scanned as %+v, %+v", rep, got)
	}
}

func TestScanHeaderMismatchDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	appendAll(t, path, testHeader{Schema: "test/v1", Tag: "a"}, testRecord{Key: "x", N: 1})

	got, rep := scanAll(t, path, testHeader{Schema: "test/v1", Tag: "OTHER"})
	if rep.HeaderMatched || rep.Entries != 0 || len(got) != 0 {
		t.Fatalf("mismatched header still replayed: %+v, %+v", rep, got)
	}
}

// TestForeignJournalReplacedOnFirstAppend: opening an appender over a
// journal with another header changes nothing; its first Append
// replaces the file with its own header and record.
func TestForeignJournalReplacedOnFirstAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	mine, other := testHeader{Schema: "test/v1", Tag: "a"}, testHeader{Schema: "test/v1", Tag: "OTHER"}
	appendAll(t, path, mine, testRecord{Key: "x", N: 1})

	appendAll(t, path, other) // opened and closed, never written
	if got, rep := scanAll(t, path, mine); rep.Entries != 1 || got[0].Key != "x" {
		t.Fatalf("opening a foreign appender changed the file: %+v %+v", rep, got)
	}

	appendAll(t, path, other, testRecord{Key: "y", N: 2})
	if _, rep := scanAll(t, path, mine); rep.HeaderMatched {
		t.Fatalf("the first append kept the old header: %+v", rep)
	}
	if got, rep := scanAll(t, path, other); rep.Entries != 1 || rep.Skipped != 0 || got[0].Key != "y" {
		t.Fatalf("replaced journal: %+v %+v", rep, got)
	}
}

// TestAppendAfterTornTail: after a kill mid-append the next record
// starts on a line of its own, so it survives the following restart,
// and a record that lost only its newline still replays.
func TestAppendAfterTornTail(t *testing.T) {
	hdr := testHeader{Schema: "test/v1", Tag: "a"}
	for _, tc := range []struct {
		tail string
		want int // records replayed after the append
	}{
		{`{"key":"z","n":`, 2},   // cut mid-record: skipped
		{`{"key":"z","n":3}`, 3}, // lost only its newline: replays
	} {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		appendAll(t, path, hdr, testRecord{Key: "x", N: 1})
		appendRaw(t, path, tc.tail)
		appendAll(t, path, hdr, testRecord{Key: "y", N: 2})

		got, _ := scanAll(t, path, hdr)
		if len(got) != tc.want || got[len(got)-1].Key != "y" {
			t.Fatalf("tail %q: replayed %+v, want %d records ending in y", tc.tail, got, tc.want)
		}
	}
}

func TestScanTruncatedTail(t *testing.T) {
	hdr := testHeader{Schema: "test/v1", Tag: "a"}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	appendAll(t, path, hdr, testRecord{Key: "x", N: 1}, testRecord{Key: "y", N: 2})
	// Simulate a kill mid-append: a half-written trailing line.
	appendRaw(t, path, `{"key":"z","n":`)

	got, rep := scanAll(t, path, hdr)
	if rep.Entries != 2 || rep.Skipped != 1 || len(got) != 2 {
		t.Fatalf("report %+v records %+v", rep, got)
	}
}

// TestScanCorruptMiddle: a damaged line is skipped and counted, and the
// records after it still replay.
func TestScanCorruptMiddle(t *testing.T) {
	hdr := testHeader{Schema: "test/v1", Tag: "a"}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	appendAll(t, path, hdr, testRecord{Key: "x", N: 1})
	appendRaw(t, path, "not json at all\n")
	appendAll(t, path, hdr, testRecord{Key: "y", N: 2})

	got, rep := scanAll(t, path, hdr)
	if rep.Entries != 2 || rep.Skipped != 1 || len(got) != 2 || got[1].Key != "y" {
		t.Fatalf("skip-and-continue: %+v %+v", rep, got)
	}
}

func TestScanEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep := scanAll(t, path, testHeader{Schema: "test/v1"})
	if rep.HeaderMatched || rep.Entries != 0 || rep.Skipped != 0 || len(got) != 0 {
		t.Fatalf("empty file: %+v %+v", rep, got)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	hdr := testHeader{Schema: "test/v1", Tag: "a"}
	write := func(recs ...testRecord) {
		t.Helper()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.Encode(hdr)
		for _, r := range recs {
			enc.Encode(r)
		}
		if err := WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(testRecord{Key: "x", N: 1}, testRecord{Key: "y", N: 2})
	write(testRecord{Key: "z", N: 3}) // full replacement, not append

	got, rep := scanAll(t, path, hdr)
	if rep.Entries != 1 || len(got) != 1 || got[0].Key != "z" {
		t.Fatalf("rewrite kept stale records: %+v %+v", rep, got)
	}
	// No temp litter.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory litter: %v", entries)
	}
}

// FuzzJournalScan writes arbitrary bytes after a header — the owner's,
// or a foreign one — then scans, appends one record and scans again.
// Scan must never panic; after the owner's header every non-blank line
// is either replayed or skipped; and the append loses nothing that
// replayed before it and is itself the last record replayed.
func FuzzJournalScan(f *testing.F) {
	f.Add(false, []byte("{\"key\":\"x\",\"n\":1}\n{\"key\":\"y\",\"n\":"))               // torn tail
	f.Add(true, []byte("{\"key\":\"x\",\"n\":1}\n"))                                     // foreign header
	f.Add(false, []byte("{\"key\":\"x\",\"n\":1}\r\n{\"key\":\"y\",\"n\":2}\r\n"))       // CRLF line ends
	f.Add(false, []byte("{\"key\":\"x\",\"n\":1}\nnot json\n{\"key\":\"y\",\"n\":2}\n")) // garbage middle line
	mine := testHeader{Schema: "test/v1", Tag: "a"}
	f.Fuzz(func(t *testing.T, foreign bool, body []byte) {
		first := mine
		if foreign {
			first.Tag = "OTHER"
		}
		head, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, append(append(head, '\n'), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, rep := scanAll(t, path, mine)
		lines := 0
		for _, l := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 && !foreign {
				lines++
			}
		}
		if rep.HeaderMatched == foreign || rep.Entries+rep.Skipped != lines || len(got) != rep.Entries {
			t.Fatalf("foreign=%v: %d non-blank lines scanned as %+v", foreign, lines, rep)
		}

		want := testRecord{Key: "appended", N: -1}
		appendAll(t, path, mine, want)
		got, after := scanAll(t, path, mine)
		if !after.HeaderMatched || after.Entries != rep.Entries+1 || after.Skipped != rep.Skipped {
			t.Fatalf("foreign=%v: append turned %+v into %+v", foreign, rep, after)
		}
		if got[len(got)-1] != want {
			t.Fatalf("last record replayed is %+v, want %+v", got[len(got)-1], want)
		}
	})
}
