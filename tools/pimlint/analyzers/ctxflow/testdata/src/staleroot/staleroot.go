// Package staleroot is ctxflow fodder for a configured worker root that
// resolves to nothing: worker_roots names Serve, the package only has
// Run. The unreachable bare receive below stays unreported; the stale
// entry is the finding.
package staleroot // want `worker_roots entry "staleroot\.Serve" resolves to nothing`

func Run(ch chan int) int { return <-ch }
