// Package stalesink is detflow fodder for a configured sink that
// resolves to nothing: detflow_sinks names Emit, the package only has
// Record, so the wall-clock flow below reaches no known sink.
package stalesink // want `detflow_sinks entry "stalesink\.Emit" resolves to nothing`

import "time"

func Record(v int64) {}

func Stamp() { Record(time.Now().UnixNano()) }
