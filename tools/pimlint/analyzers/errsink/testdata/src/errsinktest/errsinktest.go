package errsinktest

import (
	"bufio"
	"errors"
	"fmt"
	"os"
)

// Each discard shape on a durability primitive is a finding.
func Shapes(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil { // checked: quiet
		return err
	}
	f.Sync()              // want `is unchecked on a durability path`
	_ = f.Sync()          // want `is assigned to _ on a durability path`
	n, _ := f.Write(data) // want `is assigned to _ on a durability path`
	_ = n
	return nil
}

// Close of a written file is armed; a deferred discard is a finding.
func DeferredClose(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want `is discarded by defer on a durability path`
	_, werr := f.Write(data)
	return werr
}

// Close of a file that was never written stays quiet.
func ReadOnly(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, rerr := f.Read(buf)
	if rerr != nil {
		return nil, rerr
	}
	return buf[:n], nil
}

// A helper whose returned error derives from a primitive propagates
// the obligation to its callers.
func flush(w *bufio.Writer) error { return w.Flush() }

func ViaHelper(w *bufio.Writer) {
	flush(w) // want `error from errsinktest\.flush is unchecked on a durability path`
}

// A helper whose only durability call is a justified best-effort
// discard, and whose error is about something else, is no carrier:
// dropping its error drops nothing durable.
func tidy(f *os.File) error {
	//pimlint:besteffort — advisory sync of a scratch file
	_ = f.Sync()
	return errors.New("tidy: nothing to report")
}

func ViaTidy(f *os.File) {
	tidy(f)
}

// Non-durability errors are not the analyzer's business.
func Unrelated() {
	fmt.Println("hello")
	plain()
}

func plain() error { return errors.New("nope") }

// A justified annotation accepts the loss.
func Accepted(f *os.File) {
	//pimlint:besteffort — scratch file, caller re-derives the content on the next run
	f.Sync()
}

// A bare marker is a finding in its own right.
var _ = 0 /*pimlint:besteffort*/ // want `needs a justification`
