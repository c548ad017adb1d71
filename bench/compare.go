package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// AppendRecord appends the report as one JSON line to path; a file of
// such lines is one set of runs for Compare.
func AppendRecord(path string, r *Report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("bench: %w", err)
	}
	return f.Close()
}

// ReadRecords loads a set of runs written by AppendRecord.
func ReadRecords(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of Compare.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Row compares one end-to-end metric on one workload across two sets.
type Row struct {
	Workload, Metric, Unit string
	Old, New               Summary
	// Change is the new median relative to the old, signed so that
	// positive is worse; Bound is the metric's regression bound.
	Change, Bound float64
	Verdict       string
}

// judge decides one row. olds and news are the runs' values, lowerBetter
// the metric's direction.
func judge(olds, news []float64, lowerBetter bool, bound float64) (Summary, Summary, float64, string) {
	o, n := Summarize(olds), Summarize(news)
	worse := func(a, b float64) bool { // a worse than b
		if lowerBetter {
			return a > b
		}
		return a < b
	}
	change := ratio(n.Median-o.Median, o.Median)
	if !lowerBetter {
		change = -change
	}
	// Of all (old, new) pairings, how many does the new run win or lose?
	var wins, losses, pairs float64
	for _, a := range olds {
		for _, b := range news {
			pairs++
			switch {
			case worse(a, b):
				wins++
			case worse(b, a):
				losses++
			}
		}
	}
	spread := ratio(max(o.Q3-o.Q1, n.Q3-n.Q1), o.Median)
	switch {
	case spread > bound && wins == pairs:
		return o, n, change, Better
	case spread > bound && losses == pairs && change > bound:
		return o, n, change, Worse
	case spread > bound:
		// Wider than the bound and overlapping: no regression can be
		// ruled out, none shown.
		return o, n, change, Unresolved
	case change > bound:
		return o, n, change, Worse
	case wins >= 0.9*pairs && -change*o.Median > o.Q3-o.Q1:
		return o, n, change, Better
	}
	return o, n, change, Same
}

// Compare judges every (workload, end-to-end metric) pair present in both
// sets, plus each workload's share of failed operations. failed reports
// whether anything got worse.
func Compare(spec *Spec, olds, news []Report) (rows []Row, failed bool) {
	type key struct{ w, m string }
	collect := func(reports []Report) (map[key][]float64, map[string][2]float64) {
		vals, ops := map[key][]float64{}, map[string][2]float64{}
		for _, r := range reports {
			if r.Trace {
				continue
			}
			for name, m := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
			}
			t := ops[r.Workload]
			ops[r.Workload] = [2]float64{t[0] + float64(r.Attempted), t[1] + float64(r.Failed)}
		}
		return vals, ops
	}
	oldVals, oldOps := collect(olds)
	newVals, newOps := collect(news)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := key{w.Name, m.Name}
			if len(oldVals[k]) == 0 || len(newVals[k]) == 0 {
				continue
			}
			o, n, change, verdict := judge(oldVals[k], newVals[k], m.Better == "lower", m.Bound)
			rows = append(rows, Row{w.Name, m.Name, m.Unit, o, n, change, m.Bound, verdict})
			failed = failed || verdict == Worse
		}
		if o, n := oldOps[w.Name], newOps[w.Name]; o[0] > 0 && n[0] > 0 {
			oldShare, newShare := o[1]/o[0], n[1]/n[0]
			verdict := Same
			if newShare > oldShare {
				verdict, failed = Worse, true
			}
			rows = append(rows, Row{Workload: w.Name, Metric: "failed_share", Unit: "share",
				Old: Summary{N: int(o[0]), Median: oldShare}, New: Summary{N: int(n[0]), Median: newShare},
				Change: newShare - oldShare, Verdict: verdict})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	return rows, failed
}

// WriteRows prints the comparison as a table.
func WriteRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-18s %-18s %-6s %3s %12s %25s %3s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "n", "old median", "[q1, q3]", "n", "new median", "[q1, q3]", "change", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-18s %-6s %3d %12.5g %25s %3d %12.5g %25s %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit,
			r.Old.N, r.Old.Median, fmt.Sprintf("[%.5g, %.5g]", r.Old.Q1, r.Old.Q3),
			r.New.N, r.New.Median, fmt.Sprintf("[%.5g, %.5g]", r.New.Q1, r.New.Q3),
			100*r.Change, 100*r.Bound, r.Verdict)
	}
}
