package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Bound is an end-to-end metric as BENCHMARK.json declares it.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end metrics of a BENCHMARK.json.
func LoadBounds(path string) (map[string]Bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Bound, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// ReadResults reads the results tqbench -out appended, one JSON object
// per line.
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of Judge.
const (
	Same       = "~"
	Better     = "better"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Judge compares the runs of B with the runs of A.  It reports better or
// worse only when the two interquartile ranges do not overlap and the
// medians differ by more than bound (a share of A's median).  Otherwise
// it reports the metric unchanged, or unresolved when either side's
// interquartile range is wider than bound, so noise cannot pass for a
// result either way.
func Judge(a, b []float64, better string, bound float64) string {
	a1, am, a3 := Quartiles(a)
	b1, bm, b3 := Quartiles(b)
	if am == 0 || bm == 0 {
		return Unresolved
	}
	delta := (bm - am) / am
	if (b1 > a3 || a1 > b3) && math.Abs(delta) > bound {
		if (delta > 0) == (better == "lower") {
			return Worse
		}
		return Better
	}
	if (a3-a1)/math.Abs(am) > bound || (b3-b1)/math.Abs(bm) > bound {
		return Unresolved
	}
	return Same
}

// Compare prints, for every workload and metric, each side's median,
// quartiles and sample count, the change of the median and — for the
// end-to-end metrics with a bound — the verdict of Judge.  It then
// checks that the simulated-output digests of each workload and seed
// are identical on both sides.  It returns false when a metric got
// worse or a digest differs.
func Compare(w io.Writer, a, b []Result, bounds map[string]Bound) bool {
	ok := true
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for side, rs := range [2][]Result{a, b} {
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[side][k] = append(vals[side][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return workloadRank(keys[i].workload) < workloadRank(keys[j].workload)
		}
		ri, rj := metricRank(keys[i].metric), metricRank(keys[j].metric)
		if ri != rj {
			return ri < rj
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-18s %-30s %-9s %26s %26s %8s  %s\n", "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta", "verdict")
	for _, k := range keys {
		av, bv := vals[0][k], vals[1][k]
		if len(av) == 0 || len(bv) == 0 {
			fmt.Fprintf(w, "%-18s %-30s %-9s %26s %26s %8s  %s\n", k.workload, k.metric, units[k], summary(av), summary(bv), "", "missing")
			continue
		}
		am, bm := Median(av), Median(bv)
		verdict := ""
		if bd, found := bounds[k.metric]; found {
			v := Judge(av, bv, bd.Better, bd.Bound)
			verdict = fmt.Sprintf("%s (bound %g)", v, bd.Bound)
			if v == Worse {
				ok = false
			}
		}
		fmt.Fprintf(w, "%-18s %-30s %-9s %26s %26s %+7.1f%%  %s\n", k.workload, k.metric, units[k],
			summary(av), summary(bv), 100*safeDiv(bm-am, math.Abs(am)), verdict)
	}
	if !compareDigests(w, a, b) {
		ok = false
	}
	return ok
}

// compareDigests checks that every workload and seed run on both sides
// produced one and the same simulated-output digest.
func compareDigests(w io.Writer, a, b []Result) bool {
	type key struct {
		workload string
		seed     uint64
	}
	digests := [2]map[key]map[string]bool{{}, {}}
	for side, rs := range [2][]Result{a, b} {
		for _, r := range rs {
			k := key{r.Workload, r.Seed}
			if digests[side][k] == nil {
				digests[side][k] = map[string]bool{}
			}
			digests[side][k][r.Digest] = true
		}
	}
	ok, shared := true, 0
	for k, da := range digests[0] {
		db, found := digests[1][k]
		if !found {
			continue
		}
		shared++
		if len(da) != 1 || len(db) != 1 || !sameKeys(da, db) {
			ok = false
			fmt.Fprintf(w, "digest mismatch: %s seed %d: A %v, B %v\n", k.workload, k.seed, keysOf(da), keysOf(db))
		}
	}
	if ok {
		fmt.Fprintf(w, "simulated-output digests identical for all %d workload/seed pairs run on both sides\n", shared)
	}
	return ok
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, m, q3 := Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(xs))
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func workloadRank(name string) int {
	for i, w := range Workloads {
		if w.Name == name {
			return i
		}
	}
	return len(Workloads)
}

func metricRank(name string) int {
	for i, d := range EndToEnd {
		if d.Name == name {
			return i
		}
	}
	return len(EndToEnd)
}
