package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestChaosRecovery is the chaos-recovery CI gate (make chaos-smoke): a
// real pimserve process is driven through the crash cycle the
// persistent store exists for —
//
//  1. serve a mixed load with persistence on, recording every response;
//  2. hard-kill the daemon (SIGKILL, no drain) with jobs still in
//     flight, so the journal can end mid-record;
//  3. corrupt the journal tail deliberately on top of that;
//  4. restart over the same directory and assert: readiness waits for
//     the warm load, every response accepted before the kill comes back
//     byte-identical from the warm cache (zero accepted-then-lost, zero
//     recomputation), and the corrupt tail was skipped — counted in
//     /metrics, never fatal.
//
// The gate runs the daemon binary itself (not an in-process server) so
// the kill is a true process death, fsync'd journal and all.
func TestChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gate builds and kills the real daemon; skipped in -short")
	}
	bin := buildPimserve(t)
	dir := t.TempDir()

	// Phase 1: populate. Distinct fast requests, all waited on — every
	// response here was "accepted": the daemon answered done.
	d1 := startPimserve(t, bin, dir)
	waitHTTPReady(t, d1.url)
	accepted := map[string]serve.JobView{} // digest -> first response
	for seed := int64(100); seed < 104; seed++ {
		v := chaosSimulate(t, d1.url, seed, true)
		if v.Status != serve.StatusDone || len(v.Result) == 0 {
			t.Fatalf("seed %d: %+v", seed, v)
		}
		accepted[v.Digest] = v
	}
	// Leave work in flight so the kill lands mid-activity (and possibly
	// mid-journal-write), then SIGKILL — no drain, no journal close.
	for seed := int64(200); seed < 202; seed++ {
		chaosSimulate(t, d1.url, seed, false)
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_ = d1.cmd.Wait()

	// Phase 2: damage the journal tail on top of whatever the kill left:
	// a record cut off mid-bytes, exactly what a crash during append
	// produces.
	journal := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open journal for corruption: %v", err)
	}
	if _, err := f.WriteString(`{"digest":"deadbeef","canon":{"cut":`); err != nil {
		t.Fatalf("corrupt journal: %v", err)
	}
	f.Close()

	// Phase 3: restart over the same directory and verify recovery.
	d2 := startPimserve(t, bin, dir)
	waitHTTPReady(t, d2.url)

	for seed := int64(100); seed < 104; seed++ {
		v := chaosSimulate(t, d2.url, seed, true)
		before, ok := accepted[v.Digest]
		if !ok {
			t.Fatalf("seed %d: digest %s not in the accepted set", seed, v.Digest)
		}
		if v.Status != serve.StatusDone || !v.Cached {
			t.Fatalf("seed %d after restart: %+v, want a warm cache hit", seed, v)
		}
		if !bytes.Equal(before.Result, v.Result) {
			t.Fatalf("seed %d: response differs across the crash:\n%s\n%s", seed, before.Result, v.Result)
		}
	}

	var m serve.Metrics
	getChaosJSON(t, d2.url+"/metrics", &m)
	if !m.Store.Enabled || m.Store.Replayed < len(accepted) {
		t.Fatalf("store replayed %d of %d accepted results: %+v", m.Store.Replayed, len(accepted), m.Store)
	}
	if m.Store.SkippedCorrupt < 1 {
		t.Fatalf("corrupt journal tail not counted: %+v", m.Store)
	}
	if m.Store.Degraded {
		t.Fatalf("recovery must not degrade the store: %+v", m.Store)
	}
	if m.Cache.WarmHits < uint64(len(accepted)) || m.Cache.Misses != 0 {
		t.Fatalf("accepted results recomputed after restart: %+v", m.Cache)
	}
	if m.Cache.WarmHitRate <= 0 {
		t.Fatalf("warm hit rate not reported: %+v", m.Cache)
	}

	// The survivor shuts down gracefully (drain, compact, exit 0).
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		_ = d2.cmd.Process.Kill()
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
}

// TestSIGTERMRightAfterListening pins the daemon's signal window: a SIGTERM
// sent the moment pimserve announces its address must take the drain path
// and exit 0, never the default action of the signal. Twenty starts,
// because a missing handler loses the race only some of the time.
func TestSIGTERMRightAfterListening(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the real daemon twenty times; skipped in -short")
	}
	bin := buildPimserve(t)
	for i := 0; i < 20; i++ {
		d := startPimserve(t, bin, t.TempDir())
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("start %d: SIGTERM: %v", i, err)
		}
		done := make(chan error, 1)
		go func() { done <- d.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("start %d: daemon exit after SIGTERM: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			t.Fatalf("start %d: daemon did not exit within 30s of SIGTERM", i)
		}
	}
}

// buildPimserve compiles the daemon, honoring a prebuilt PIMSERVE_BIN
// (the Makefile's chaos-smoke target sets it to avoid a double build).
func buildPimserve(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("PIMSERVE_BIN"); bin != "" {
		return bin
	}
	bin := filepath.Join(t.TempDir(), "pimserve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/pimserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build pimserve: %v\n%s", err, out)
	}
	return bin
}

type chaosDaemon struct {
	cmd *exec.Cmd
	url string
}

// startPimserve launches the daemon on an ephemeral port with
// persistence in dir and returns once it prints its listen address.
func startPimserve(t *testing.T, bin, dir string) *chaosDaemon {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-store", dir,
		"-drain-grace", "10ms",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start pimserve: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				urlc <- strings.TrimSpace(addr)
			}
		}
	}()
	select {
	case url := <-urlc:
		return &chaosDaemon{cmd: cmd, url: url}
	case <-time.After(30 * time.Second):
		t.Fatal("pimserve never announced its listen address")
		return nil
	}
}

// waitHTTPReady polls /readyz until the daemon reports ready — i.e.
// until the warm load completed.
func waitHTTPReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// chaosSimulate submits the gate's standard fast request shape with a
// distinguishing seed.
func chaosSimulate(t *testing.T, url string, seed int64, wait bool) serve.JobView {
	t.Helper()
	req := serve.Request{
		GPU: "G8", PIM: "P1", Policy: "fcfs",
		Scale: 0.02, MaxGPUCycles: 2_000_000, Seed: seed,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/simulate"
	if wait {
		u += "?wait=1"
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		data, _ := json.Marshal(resp.Header)
		t.Fatalf("POST status %d (%s)", resp.StatusCode, data)
	}
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return view
}

func getChaosJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(fmt.Errorf("decode %s: %w", url, err))
	}
}
