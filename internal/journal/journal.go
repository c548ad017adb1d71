// Package journal is the crash-safe JSONL log behind every durable
// artifact in the repository: the campaign checkpoint
// (internal/experiments) and the pimserve result store
// (internal/serve/store) both build on it.
//
// A journal file is JSONL: one header line identifying the producer and
// its configuration, followed by one record per line. There is one way
// to write a log, Appender: each record is appended as one line,
// fsync'd when asked, so a kill mid-write leaves at most one torn
// trailing line. WriteFileAtomic, which replaces a whole file atomically
// (temp file + rename, fsync'd), is for the files that are written
// whole — result files and telemetry captures — not for logs.
//
// This package alone decides how a log recovers when it is opened:
//
//   - Scan skips a damaged line anywhere, counts it, and replays the
//     lines around it; damage never fails the load.
//   - A file whose first line is not the owner's header (foreign,
//     headerless or empty) replays nothing. It is replaced by the
//     header only when the owner first appends to it: opening it
//     changes nothing, so a campaign over another configuration cannot
//     destroy a journal it merely looked at.
//   - A file that does not end in a newline gets one before the first
//     append, so the next record never lands on a torn line's bytes and
//     a record that lost only its newline still replays.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// ErrCorrupt is returned by a Scan entry callback to report an
// undecodable record; Scan counts it and skips it.
var ErrCorrupt = errors.New("journal: corrupt entry")

// ScanReport summarizes one Scan pass.
type ScanReport struct {
	// HeaderMatched reports whether the file existed and its first line
	// was the owner's header. When false, no entries were replayed: a
	// journal written by a different producer or for a different
	// configuration is discarded wholesale, never trusted.
	HeaderMatched bool
	// Entries counts records successfully replayed.
	Entries int
	// Skipped counts records rejected by the entry callback (corrupt,
	// truncated, or failing the caller's integrity checks).
	Skipped int
}

// nextLine advances sc to its next non-blank line and returns it
// trimmed, or nil at the end of the input.
func nextLine(sc *bufio.Scanner) []byte {
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			return line
		}
	}
	return nil
}

// Scan replays the JSONL journal at path. Its first non-blank line must
// be header, JSON-encoded; otherwise nothing replays
// (HeaderMatched=false, nil error). Every further non-blank line is
// passed to entry: a nil return counts as replayed, an error as
// skipped, and the scan goes on either way. A missing file is not an
// error — it scans as empty.
func Scan(path string, header any, entry func(line []byte) error) (ScanReport, error) {
	var rep ScanReport
	hdr, err := json.Marshal(header)
	if err != nil {
		return rep, fmt.Errorf("journal: encode header: %w", err)
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("journal: open: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20) // records up to 16 MiB
	if !bytes.Equal(nextLine(sc), hdr) {
		return rep, nil
	}
	rep.HeaderMatched = true
	for line := nextLine(sc); line != nil; line = nextLine(sc) {
		if entry(line) != nil {
			rep.Skipped++
		} else {
			rep.Entries++
		}
	}
	// A scanner error (token too long, read failure) is tail damage like
	// any other: keep what replayed, count one skip.
	if sc.Err() != nil {
		rep.Skipped++
	}
	return rep, nil
}

// WriteFileAtomic writes data to path through an fsync'd temp file in
// the same directory followed by os.Rename and a directory fsync, so a
// killed process leaves either the previous or the new complete file,
// never a truncated or unlinked one.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	// Close exactly once, with its error surfaced: a failed close can
	// mean the buffered data never reached the file.
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(perm)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename itself already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	//pimlint:besteffort — read-only directory handle; nothing buffered to lose on close
	defer d.Close()
	//pimlint:besteffort — directory fsync is advisory: filesystems that refuse it (some network mounts) still completed the rename
	_ = d.Sync()
	return nil
}

// An Appender appends one JSON record per line to the journal at path.
// It writes nothing until the first Append, which first repairs what a
// previous owner left (see the package comment): a file whose first
// line is not the header — absent, empty or foreign — is truncated and
// restarted with the header, and a file that ends mid-line gets a
// newline. With sync enabled every Append is fsync'd before returning,
// so an acknowledged record survives a hard kill. Safe for concurrent
// use.
type Appender struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	fsync bool
	// head goes ahead of the next record written: the header line, after
	// truncating the file when truncate is set, or the newline a torn
	// last line lacks.
	head     []byte
	truncate bool
}

// OpenAppender opens (or creates) the journal at path for appending
// records after header.
func OpenAppender(path string, header any, fsync bool) (*Appender, error) {
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("journal: encode header: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open append: %w", err)
	}
	// Plan the first Append's repair from the first line and last byte.
	st, err := f.Stat()
	last := []byte{'\n'}
	if err == nil && st.Size() > 0 {
		_, err = f.ReadAt(last, st.Size()-1)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: inspect: %w", err)
	}
	a := &Appender{f: f, size: st.Size(), fsync: fsync}
	switch {
	case !bytes.Equal(nextLine(bufio.NewScanner(f)), hdr):
		a.head, a.truncate = append(hdr, '\n'), true
	case last[0] != '\n':
		a.head = []byte{'\n'}
	}
	return a, nil
}

// Append writes one record line (plus fsync when the appender is
// synchronous). The record is durable when Append returns nil.
func (a *Appender) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	data = append(data, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.truncate {
		if err := a.f.Truncate(0); err != nil {
			return fmt.Errorf("journal: reset: %w", err)
		}
		a.size = 0
	}
	if a.head != nil {
		data = slices.Concat(a.head, data)
	}
	n, err := a.f.Write(data)
	a.size += int64(n)
	if err != nil {
		if n > 0 && !a.truncate {
			a.head = []byte{'\n'} // the partial line must not swallow the next record
		}
		return fmt.Errorf("journal: append: %w", err)
	}
	a.head, a.truncate = nil, false
	if !a.fsync {
		return nil
	}
	// The fsync happens under a.mu on purpose: Append's contract is
	// "durable when it returns nil", and moving the sync off-lock would
	// let a later append interleave before this record hits the disk,
	// reordering acknowledged records. a.mu leads to no other lock.
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Size returns the current journal size in bytes (header included).
func (a *Appender) Size() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size
}

// Close closes the underlying file. The appender is unusable after.
func (a *Appender) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Close()
}
