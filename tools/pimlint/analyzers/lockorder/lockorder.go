// Package lockorder builds a whole-program lock-acquisition graph over
// the concurrency packages and flags the two shapes that turn a mutex
// into a deadlock: cyclic nested acquisition, and blocking while a
// lock is held.
//
// Within every function (and every function literal, analyzed as its
// own scope) the analyzer finds lock regions: the source interval from
// a sync.Mutex/RWMutex Lock/RLock call to the matching same-lock
// Unlock, or to the end of the scope for the defer-unlock idiom. Locks
// are identified by the stable field key "pkgpath.TypeName.field"
// (package-level mutexes by "pkgpath.var", locals by a function-scoped
// name), so the same lock is one graph node no matter which method
// acquires it.
//
// Inside a region it flags, directly:
//
//   - channel sends, receives, blocking selects (no default arm) and
//     ranges over channels;
//   - calls that block by contract: (*sync.Cond).Wait,
//     (*sync.WaitGroup).Wait, (*os.File).Sync (fsync), time.Sleep;
//   - re-acquisition of the held lock (self-deadlock).
//
// and, through the program's call graph (tools/pimlint/callgraph),
// transitively:
// a lock-held call into any function whose reachable closure contains
// one of the blocking operations above, or re-acquires the held lock.
// Nested acquisitions of other locks — direct or reached through
// calls — become edges of the lock graph; a cycle in that graph is the
// classic AB/BA deadlock and is reported once per cycle.
//
// `go` statements inside a region are skipped (the goroutine body does
// not run under the caller's lock), as are blocking operations and
// lock events inside goroutine-launching literals when summarizing a
// function for its callers. Function literals that are not launched
// with `go` are treated as part of the enclosing function: most are
// invoked synchronously (iterator callbacks) and skipping them would
// miss real holds.
//
// The escape hatch is //pimlint:lockorder on the flagged line or the
// line above, and it must carry a justification — the annotation is an
// audited claim (e.g. "fsync under the lock is the persist-before-
// fulfill contract"). Call edges at annotated sites are also skipped
// when callees are summarized, so a justified hold does not propagate
// into the lock graph.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer flags lock-order cycles and blocking operations under held
// locks.
var Analyzer = &analysis.Analyzer{Name: "lockorder", Marker: "lockorder", Audited: true, Run: run}

// lockCalls maps the sync acquisition/release methods to whether they
// release.
var lockCalls = map[string]bool{
	"(*sync.Mutex).Lock":      false,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Lock":    false,
	"(*sync.RWMutex).RLock":   false,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// blockingCalls are functions that block by contract, keyed by
// types.Func FullName.
var blockingCalls = map[string]string{
	"(*os.File).Sync":        "fsync",
	"(*sync.Cond).Wait":      "Cond.Wait",
	"(*sync.WaitGroup).Wait": "WaitGroup.Wait",
	"time.Sleep":             "sleep",
}

// funcFacts summarizes one declared function for the whole-program
// phase. acquires and blocks describe what happens on the caller's
// stack when the function is called; lock events and blocking
// operations inside goroutine-launching literals are kept out of them
// but still produce regions and direct diagnostics.
type funcFacts struct {
	fn       *callgraph.Func
	acquires map[string]bool // lock keys acquired in the body
	blocks   []string        // blocking ops in the body, e.g. "channel send", "fsync"
	regions  []*region
}

// region is one lock-held source interval and what happens inside it.
type region struct {
	key        string // lock identity
	start, end token.Pos
	directs    []held // blocking operations, by description
	calls      []held // calls, by callee FullName
	nested     []held // direct acquisitions of locks, by key
}

type held struct {
	pos  token.Pos
	what string
}

func run(pass *analysis.Pass) {
	facts := make(map[string]*funcFacts)
	for name, fn := range pass.Funcs {
		ff := &funcFacts{fn: fn, acquires: make(map[string]bool)}
		facts[name] = ff
		ff.scanScope(fn.Decl.Body, false)
	}

	// closure is the transitive summary of one callee: every lock it may
	// acquire and one way it may block, over the functions reachable
	// from it through call sites no annotation covers.
	type closure struct {
		acquires []string
		block    string
	}
	memo := make(map[string]*closure)
	summarize := func(name string) *closure {
		if c := memo[name]; c != nil {
			return c
		}
		c := &closure{}
		memo[name] = c
		root := pass.Funcs[name]
		if root == nil {
			return c
		}
		reached := pass.Reachable([]*callgraph.Func{root}, func(site token.Pos, _ *callgraph.Func) bool { return pass.Covered(site) })
		var names []string
		for n := range reached {
			names = append(names, n)
		}
		sort.Strings(names)
		acquires := make(map[string]bool)
		for _, n := range names {
			ff := facts[n]
			for key := range ff.acquires {
				acquires[key] = true
			}
			if c.block == "" && len(ff.blocks) > 0 {
				c.block = ff.blocks[0] + " in " + lintcfg.Short(n)
			}
		}
		for key := range acquires {
			c.acquires = append(c.acquires, key)
		}
		sort.Strings(c.acquires)
		return c
	}

	// Lock-graph edges, with the site that first creates each.
	edges := make(map[string]map[string]token.Pos)
	addEdge := func(from, to string, pos token.Pos) {
		if edges[from] == nil {
			edges[from] = make(map[string]token.Pos)
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = pos
		}
	}

	var names []string
	for name, ff := range facts {
		if pass.Cfg.Covers(lintcfg.ConcurrencyPackages, ff.fn.Pkg.Path()) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, reg := range facts[name].regions {
			lock := lintcfg.Short(reg.key)
			for _, d := range reg.directs {
				pass.Reportf(d.pos, "%s while holding %s; blocking under a lock risks deadlock (annotate //pimlint:lockorder <why> if intended)", d.what, lock)
			}
			for _, nl := range reg.nested {
				switch {
				case pass.Covered(nl.pos):
				case nl.what == reg.key:
					pass.Reportf(nl.pos, "%s is acquired again while already held (self-deadlock)", lock)
				default:
					addEdge(reg.key, nl.what, nl.pos)
				}
			}
			for _, hc := range reg.calls {
				if pass.Covered(hc.pos) {
					continue
				}
				c := summarize(hc.what)
				if slices.Contains(c.acquires, reg.key) {
					pass.Reportf(hc.pos, "call to %s while holding %s can reacquire it (self-deadlock)", lintcfg.Short(hc.what), lock)
					continue
				}
				for _, key := range c.acquires {
					addEdge(reg.key, key, hc.pos)
				}
				if c.block != "" {
					pass.Reportf(hc.pos, "call to %s while holding %s reaches a blocking operation (%s); "+
						"release the lock first or annotate //pimlint:lockorder <why>", lintcfg.Short(hc.what), lock, c.block)
				}
			}
		}
	}
	reportCycles(edges, pass.Reportf)
}

// scanScope analyzes one function or function-literal body: it
// computes the scope's lock regions and their contents, records the
// function's blocking summary (unless async: the scope is the body of
// a go-launched literal), and recurses into nested literals.
func (ff *funcFacts) scanScope(body *ast.BlockStmt, async bool) {
	info := ff.fn.Info
	type lockEvent struct {
		pos, end          token.Pos
		key               string
		release, deferred bool
	}
	var (
		events     []lockEvent
		lits       []*ast.FuncLit
		asyncLits  = make(map[*ast.FuncLit]bool)
		deferCalls = make(map[*ast.CallExpr]bool)
	)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, x)
			return false
		case *ast.GoStmt:
			if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
				asyncLits[fl] = true
			}
		case *ast.DeferStmt:
			deferCalls[x.Call] = true
		case *ast.CallExpr:
			if key, release, ok := ff.lockCall(x); ok {
				events = append(events, lockEvent{x.Pos(), x.End(), key, release, deferCalls[x]})
			}
		}
		return true
	})

	// Match each acquisition with the first later same-lock non-deferred
	// release; defer-unlock (or no unlock) holds to the end of the scope.
	// ast.Inspect visits in source order, so events are sorted.
	consumed := make([]bool, len(events))
	var regions []*region
	for i, ev := range events {
		if ev.release {
			continue
		}
		if !async {
			ff.acquires[ev.key] = true
		}
		reg := &region{key: ev.key, start: ev.end, end: body.End()}
		for j := i + 1; j < len(events); j++ {
			if events[j].release && !events[j].deferred && !consumed[j] && events[j].key == ev.key {
				reg.end = events[j].pos
				consumed[j] = true
				break
			}
		}
		regions = append(regions, reg)
	}
	ff.regions = append(ff.regions, regions...)
	regionAt := func(pos token.Pos) *region {
		for _, r := range regions {
			if pos > r.start && pos < r.end {
				return r
			}
		}
		return nil
	}
	// blocks records one blocking operation: in the function's summary
	// unless async, and in the region holding a lock over it.
	blocks := func(pos token.Pos, desc string) {
		if !async {
			ff.blocks = append(ff.blocks, desc)
		}
		if reg := regionAt(pos); reg != nil {
			reg.directs = append(reg.directs, held{pos, desc})
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The goroutine body does not run under this scope's locks,
			// and the launch itself does not block.
			return false
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					return false // default arm: non-blocking poll
				}
			}
			blocks(x.Pos(), "blocking select")
			return false
		case *ast.SendStmt:
			blocks(x.Pos(), "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				blocks(x.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					blocks(x.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			reg := regionAt(x.Pos())
			if key, release, ok := ff.lockCall(x); ok {
				if reg != nil && !release {
					reg.nested = append(reg.nested, held{x.Pos(), key})
				}
				return true
			}
			fn := callgraph.Callee(info, x)
			if fn == nil {
				return true
			}
			if desc, ok := blockingCalls[fn.FullName()]; ok {
				blocks(x.Pos(), desc)
			} else if reg != nil {
				reg.calls = append(reg.calls, held{x.Pos(), fn.FullName()})
			}
		}
		return true
	})

	for _, fl := range lits {
		ff.scanScope(fl.Body, async || asyncLits[fl])
	}
}

// lockCall reports whether the call is a sync.Mutex/RWMutex
// acquisition or release, with the lock's stable identity.
func (ff *funcFacts) lockCall(call *ast.CallExpr) (key string, release, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := callgraph.Callee(ff.fn.Info, call)
	if !isSel || fn == nil {
		return "", false, false
	}
	release, ok = lockCalls[fn.FullName()]
	if ok {
		key = ff.lockKey(sel.X)
	}
	return key, release, ok
}

// lockKey names the mutex behind expr: struct fields get the stable
// typeutil key, package-level variables "pkgpath.name", and locals a
// function-scoped name. Anything else falls back to the expression
// text.
func (ff *funcFacts) lockKey(expr ast.Expr) string {
	info := ff.fn.Info
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if key, ok := typeutil.SelectedField(info, e); ok {
			return key
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			if key, ok := typeutil.PkgVarKey(v); ok {
				return key
			}
			return ff.fn.Name + "." + v.Name()
		}
	}
	return types.ExprString(expr)
}

// reportCycles finds cycles in the lock graph with a DFS and reports
// each once, anchored at the edge that closes it.
func reportCycles(edges map[string]map[string]token.Pos, diag func(token.Pos, string, ...any)) {
	sorted := func(m map[string]token.Pos) []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	seen := make(map[string]bool) // canonical cycle signatures
	var path []string
	onPath := make(map[string]int)
	var dfs func(lock string)
	dfs = func(lock string) {
		onPath[lock] = len(path)
		path = append(path, lock)
		for _, to := range sorted(edges[lock]) {
			i, closes := onPath[to]
			if !closes {
				dfs(to)
				continue
			}
			// Rotate the cycle so its smallest lock comes first, giving
			// every traversal of the same cycle one signature.
			cycle := path[i:]
			min := 0
			for j, k := range cycle {
				if k < cycle[min] {
					min = j
				}
			}
			var short []string
			for j := range cycle {
				short = append(short, lintcfg.Short(cycle[(min+j)%len(cycle)]))
			}
			if sig := strings.Join(short, " -> "); !seen[sig] {
				seen[sig] = true
				diag(edges[lock][to], "lock-order cycle: %s -> %s", sig, short[0])
			}
		}
		path = path[:len(path)-1]
		delete(onPath, lock)
	}
	all := make(map[string]token.Pos)
	for from := range edges {
		all[from] = token.NoPos
	}
	for _, lock := range sorted(all) {
		dfs(lock)
	}
}
