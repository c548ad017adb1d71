package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// ManifestSchema versions the JSONL format; bump on incompatible change.
const ManifestSchema = "pimsim-telemetry/v1"

// Manifest identifies one simulation run: what was simulated, with which
// code revision, and what it cost. sim.Run fills the simulation fields;
// the experiment runner and the CLIs layer on scenario fields (policy,
// scale, kernel IDs) they alone know.
type Manifest struct {
	Schema string `json:"schema"`

	// ConfigHash fingerprints the full config.Config so runs are
	// comparable; Seed is the workload randomness base.
	ConfigHash string `json:"config_hash"`
	Seed       int64  `json:"seed"`

	// Scenario fields, filled by whoever launched the run.
	Policy  string   `json:"policy,omitempty"`
	VCMode  string   `json:"vc_mode,omitempty"`
	Scale   float64  `json:"scale,omitempty"`
	Kernels []string `json:"kernels,omitempty"`

	// Machine shape.
	Channels int `json:"channels"`
	SMs      int `json:"sms"`

	// Provenance.
	GitDescribe string `json:"git_describe"`
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`

	// Run outcome and cost.
	StartTime       string `json:"start_time"`
	WallTimeMS      int64  `json:"wall_time_ms"`
	GPUCycles       uint64 `json:"gpu_cycles"`
	DRAMCycles      uint64 `json:"dram_cycles"`
	Aborted         bool   `json:"aborted"`
	PeakGoroutines  int    `json:"peak_goroutines"` // runtime.NumGoroutine() at run end, not a peak
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`

	// SampleInterval and Samples describe the attached time series (0
	// when telemetry was disabled); SamplesDropped counts ring
	// evictions.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	Samples        int    `json:"samples,omitempty"`
	SamplesDropped uint64 `json:"samples_dropped,omitempty"`

	// start anchors WallTimeMS; it is recorded by NewManifest so the
	// deterministic simulation core never touches the wall clock
	// itself.
	start time.Time
}

// HashConfig fingerprints any configuration value by hashing its JSON
// encoding (stable: encoding/json emits struct fields in declaration
// order). The first 16 hex digits are plenty to distinguish configs.
func HashConfig(cfg any) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

var (
	gitOnce     sync.Once
	gitDescribe string
)

// GitDescribe returns a best-effort source revision: the VCS stamp baked
// into the binary when present, otherwise one `git describe` invocation
// (cached for the process), otherwise "unknown".
func GitDescribe() string {
	gitOnce.Do(func() {
		gitDescribe = "unknown"
		if info, ok := debug.ReadBuildInfo(); ok {
			var rev string
			dirty := false
			for _, s := range info.Settings {
				switch s.Key {
				case "vcs.revision":
					rev = s.Value
				case "vcs.modified":
					dirty = s.Value == "true"
				}
			}
			if rev != "" {
				if len(rev) > 12 {
					rev = rev[:12]
				}
				if dirty {
					rev += "-dirty"
				}
				gitDescribe = rev
				return
			}
		}
		// `go test` and `go run` binaries carry no VCS stamp; fall back
		// to asking git directly, tolerating its absence.
		out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
		if err == nil {
			if s := strings.TrimSpace(string(out)); s != "" {
				gitDescribe = s
			}
		}
	})
	return gitDescribe
}

// NewManifest starts a manifest for a run over the given config value
// and machine shape. Call Finish when the run completes.
func NewManifest(cfg any, seed int64, channels, sms int) *Manifest {
	return &Manifest{
		Schema:     ManifestSchema,
		ConfigHash: HashConfig(cfg),
		Seed:       seed,
		Channels:   channels,
		SMs:        sms,

		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		StartTime:   time.Now().UTC().Format(time.RFC3339),
		start:       time.Now(),
	}
}

// Finish stamps the run outcome and process cost; the wall time is
// measured from NewManifest. peakGoroutines is the goroutine count to
// record, 0 to sample runtime.NumGoroutine() now; the simulator passes
// the count at run end, so the field named for a peak holds no peak (its
// JSON name is pinned by TestJournalLinePinned).
// The allocation counters need runtime.ReadMemStats (a stop-the-world
// probe), so they are filled only while telemetry is enabled — a
// disabled run's manifest stays effectively free.
func (m *Manifest) Finish(gpuCycles, dramCycles uint64, aborted bool, peakGoroutines int) {
	if m == nil {
		return
	}
	m.WallTimeMS = time.Since(m.start).Milliseconds()
	m.GPUCycles = gpuCycles
	m.DRAMCycles = dramCycles
	m.Aborted = aborted
	if peakGoroutines <= 0 {
		peakGoroutines = runtime.NumGoroutine()
	}
	m.PeakGoroutines = peakGoroutines
	if Enabled() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.HeapAllocBytes = ms.HeapAlloc
		m.TotalAllocBytes = ms.TotalAlloc
		m.NumGC = ms.NumGC
	}
}

// Summary renders a one-line human-readable digest.
func (m *Manifest) Summary() string {
	if m == nil {
		return "<no manifest>"
	}
	return fmt.Sprintf("cfg=%s seed=%d ch=%d sms=%d rev=%s gpu=%d dram=%d wall=%dms",
		m.ConfigHash, m.Seed, m.Channels, m.SMs, m.GitDescribe, m.GPUCycles, m.DRAMCycles, m.WallTimeMS)
}
