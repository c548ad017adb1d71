package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/config"
)

// study is a design-point experiment of the registry (Fig. 14a/b, the
// CAP and BLISS sweeps, the dual-buffer extension): an axis of labelled
// points, each run over the kernel cross, reduced to one row of named
// values and rendered as one table.
type study struct {
	// heading is printed over the table; a pair study names its kernel
	// pair through two %s verbs.
	heading string
	// head is the column-head line; row formats one point: its label,
	// then one value per column.
	head, row string
	// cols names the reductions of a row, once per variant.
	cols []string
	mode config.VCMode
	// pims, when set, replaces the figure's PIM kernels; pair keeps only
	// the first GPU and PIM kernel; llm adds the Fig. 11 LLM cell to
	// every point.
	pims      []string
	pair, llm bool
	// points is the axis.
	points []point
	// variants, when set, runs every point once per configuration change
	// listed; nil runs it once, unchanged.
	variants []variant
}

// point is one design point: a policy and a change to the
// configuration, which its cells carry. Baselines run under the cell's
// configuration with the runner's scheduler knobs, so a change confined
// to the knobs shares the runner's baselines and one that reaches
// further gets a set of its own.
type point struct {
	label, policy string
	set           func(*config.Config)
}

// variant is a further configuration change every point of a study runs
// under (the NeuPIMs dual row buffer); its columns are named with its
// prefix.
type variant struct {
	prefix string
	set    func(*config.Config)
}

// axis makes one point per value.
func axis[T any](values []T, at func(T) point) []point {
	pts := make([]point, len(values))
	for i, v := range values {
		pts[i] = at(v)
	}
	return pts
}

// policyPoint is the unchanged configuration under one policy, labelled
// with its name.
func policyPoint(policy string) point { return point{label: policy, policy: policy} }

// outcome is what one point's cells under one configuration reduce from.
type outcome struct {
	pairs []Pair
	llm   float64
}

// over averages a per-pair metric over the point's competitive cells.
func over(m metric) func(*outcome) float64 {
	return func(o *outcome) float64 { return mean(o.pairs, m) }
}

// reductions names every value a study row can hold.
var reductions = map[string]func(*outcome) float64{
	"FI":      over(fairness),
	"ST":      over(throughput),
	"MEM-shr": over(memShare),
	"conf/sw": over(func(p Pair) (float64, bool) { return p.ConflictsPerSwitch, true }),
	"LLM":     func(o *outcome) float64 { return o.llm },
}

// run sweeps every cell of every point and variant on r's worker pool at
// once, and reduces each point to the study's columns. id names the
// subdirectory of r.TelemetryDir the points' captures go to.
func (s *study) run(ctx context.Context, r *Runner, id string, gpus, pims []string) (*Table, error) {
	if s.pims != nil {
		pims = s.pims
	}
	tab := &Table{Heading: s.heading, Head: s.head, Row: s.row}
	if s.pair {
		gpus, pims = gpus[:1], pims[:1]
		tab.Heading = fmt.Sprintf(s.heading, gpus[0], pims[0])
	}
	variants := s.variants
	if variants == nil {
		variants = []variant{{}}
	}
	outs := make([]outcome, len(s.points)*len(variants))
	var tasks []task
	var feeds []*outcome // the outcome each task reduces into
	for i, p := range s.points {
		for j, v := range variants {
			o := &outs[i*len(variants)+j]
			cfg := r.at(s.mode)
			for _, set := range []func(*config.Config){p.set, v.set} {
				if set != nil {
					set(&cfg)
				}
			}
			var dir string
			if r.TelemetryDir != "" {
				name := strings.NewReplacer("/", "-", ":", "-").Replace(v.prefix + strings.TrimSpace(p.label))
				dir = filepath.Join(r.TelemetryDir, id, name)
			}
			cells := cross(gpus, pims, p.policy, cfg)
			if s.llm {
				cells = append(cells, llmCell(p.policy, cfg))
			}
			for _, c := range cells {
				tasks = append(tasks, task{c, dir})
				feeds = append(feeds, o)
			}
		}
	}
	pairs, results, err := r.sweep(ctx, tasks, nil)
	if err != nil {
		return nil, err
	}
	for i, t := range tasks {
		o := feeds[i]
		if t.c.GPU != LLMQKV {
			o.pairs = append(o.pairs, pairs[i])
			continue
		}
		collab, err := r.collab(ctx, t.c, results[i])
		if err != nil {
			return nil, err
		}
		o.llm = collab.Speedup
	}
	for _, v := range variants {
		for _, c := range s.cols {
			tab.Names = append(tab.Names, v.prefix+c)
		}
	}
	for i, p := range s.points {
		var row []float64
		for j := range variants {
			for _, c := range s.cols {
				row = append(row, reductions[c](&outs[i*len(variants)+j]))
			}
		}
		tab.add(p.label, row...)
	}
	return tab, nil
}

// studyFigure registers a study under a figure ID.
func studyFigure(id, title string, s study) Figure {
	return Figure{ID: id, Title: title,
		run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) ([]*Table, error) {
			return one(s.run(ctx, r, id, gpus, pims))
		}}
}
