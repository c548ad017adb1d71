package telemetry

import (
	"bytes"

	"repro/internal/journal"
)

// WriteJSONLFile renders a full telemetry capture (manifest, metrics,
// time series) and writes it to path through journal.WriteFileAtomic
// (fsync'd temp file + rename), so a killed run never leaves a
// truncated capture.
func WriteJSONLFile(path string, m *Manifest, metrics []MetricPoint, samples []Snapshot) error {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, m, metrics, samples); err != nil {
		return err
	}
	return journal.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
