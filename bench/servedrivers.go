package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/serve/store"
	"repro/internal/telemetry"
)

// Service-layer drivers: the steps pimserve takes on every request and on
// every persisted result, each timed on its own through its exported
// function.

// driveServeFuncs times Canonicalize, Canonical.Digest and Cache.Lookup
// (on a cache already holding every digest, so each lookup is a hit) over
// reqs, in microseconds per call.
func driveServeFuncs(reqs []serve.Request, b driverBudget) (canonUS, digestUS, lookupUS float64, err error) {
	canons := make([]serve.Canonical, len(reqs))
	digests := make([]string, len(reqs))
	c := serve.NewCache(0, telemetry.NewRegistry())
	for i, req := range reqs {
		if canons[i], err = serve.Canonicalize(req); err != nil {
			return 0, 0, 0, err
		}
		digests[i] = canons[i].Digest()
		c.Seed(digests[i], []byte("{}"))
	}
	canonUS = b.nsPerOp(func() int {
		for _, req := range reqs {
			canon, _ := serve.Canonicalize(req) // validated above
			sink += uint64(len(canon.Kind))
		}
		return len(reqs)
	}) / 1e3
	digestUS = b.nsPerOp(func() int {
		for i := range canons {
			sink += uint64(len(canons[i].Digest()))
		}
		return len(canons)
	}) / 1e3
	lookupUS = b.nsPerOp(func() int {
		for _, d := range digests {
			_, outcome := c.Lookup(d)
			sink += uint64(outcome)
		}
		return len(digests)
	}) / 1e3
	return canonUS, digestUS, lookupUS, nil
}

// syntheticRecord is the i-th made-up store record of a driver.
func syntheticRecord(i int) (digest string, canon json.RawMessage, result []byte, err error) {
	c, err := serve.Canonicalize(serveRequest(2_000_000, i, serveScale))
	if err != nil {
		return "", nil, nil, err
	}
	if canon, err = json.Marshal(c); err != nil {
		return "", nil, nil, err
	}
	result, err = json.Marshal(serve.Result{Digest: c.Digest(), Kind: c.Kind, Mode: c.Mode, Scale: c.Scale})
	return c.Digest(), canon, result, err
}

// driveStorePut returns the mean milliseconds one Store.Put of a new
// record takes, with or without the per-record fsync.
func driveStorePut(parent string, sync bool, n int) (float64, error) {
	dir, err := os.MkdirTemp(parent, "put-")
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, Sync: sync})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var total time.Duration
	for i := 0; i < n; i++ {
		digest, canon, result, err := syntheticRecord(i)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		ok := st.Put(digest, canon, result)
		total += time.Since(start)
		if !ok {
			return 0, fmt.Errorf("bench: store refused record %d", i)
		}
	}
	return float64(total) / 1e6 / float64(n), nil
}

// driveStoreReplay returns how many records per second store.Open replays
// from a store holding n.
func driveStoreReplay(parent string, n int) (float64, error) {
	dir, err := os.MkdirTemp(parent, "replay-")
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	if err := seedStore(dir, 3_000_000, n, nil); err != nil {
		return 0, err
	}
	start := time.Now()
	st, err := store.Open(store.Options{Dir: dir})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	if st.Len() != n {
		return 0, fmt.Errorf("bench: store replayed %d of %d records", st.Len(), n)
	}
	return float64(n) / elapsed.Seconds(), nil
}

// driveJournalAppend returns the mean microseconds of one
// journal.Appender.Append of a store-sized record.
func driveJournalAppend(parent string, sync bool, n int) (float64, error) {
	dir, err := os.MkdirTemp(parent, "journal-")
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	app, err := journal.OpenAppender(filepath.Join(dir, "journal.jsonl"), map[string]string{"schema": "bench"}, sync)
	if err != nil {
		return 0, err
	}
	defer app.Close()
	digest, canon, result, err := syntheticRecord(0)
	if err != nil {
		return 0, err
	}
	rec := store.Record{Digest: digest, Canon: canon, Result: result}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := app.Append(rec); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n), nil
}
