package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// LatencyRecorder accumulates latency samples and reports percentiles.
// Simulated latencies repeat: a run of a quarter-million samples often
// holds a hundred distinct values. So the recorder keeps the samples as
// sorted (value, count) runs plus a short unsorted tail of recent
// samples, folded into the runs once it grows as long as they are.
// Every statistic is computed over the same multiset raw samples would
// hold, so percentiles stay exact: nothing is sketched or bucketed.
//
// A by-value copy shares storage with its original, so copy a recorder
// only once recording into it has finished; the original and its copies
// may then each be queried.
type LatencyRecorder struct {
	runs []latRun // sorted by value, values distinct
	tail []latRun // not yet folded into runs
	n    int
	sum  Duration
}

// latRun is n samples of value d.
type latRun struct {
	d Duration
	n int
}

// foldMin is the tail length below which Record and Merge never fold;
// beyond it the tail folds once it is as long as the runs, which keeps
// a fold's merge O(1) per sample amortized.
const foldMin = 1024

// Record adds one sample.
func (l *LatencyRecorder) Record(d Duration) {
	l.tail = append(l.tail, latRun{d, 1})
	l.n++
	l.sum += d
	if len(l.tail) >= max(foldMin, len(l.runs)) {
		l.fold(true)
	}
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int { return l.n }

// Mean returns the mean sample, or 0 with no samples.
func (l *LatencyRecorder) Mean() Duration {
	if l.n == 0 {
		return 0
	}
	return l.sum / Duration(l.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (l *LatencyRecorder) Min() Duration {
	l.fold(false)
	if l.n == 0 {
		return 0
	}
	return l.runs[0].d
}

// Max returns the largest sample, or 0 with no samples.
func (l *LatencyRecorder) Max() Duration {
	l.fold(false)
	if l.n == 0 {
		return 0
	}
	return l.runs[len(l.runs)-1].d
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples.
func (l *LatencyRecorder) Percentile(p float64) Duration {
	l.fold(false)
	if l.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(l.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > l.n {
		rank = l.n
	}
	for _, r := range l.runs {
		if rank <= r.n {
			return r.d
		}
		rank -= r.n
	}
	panic("sim: latency runs do not add up to the sample count")
}

// Merge absorbs o's samples into l: o's runs merge into l's runs, and
// o's tail joins l's tail. Because percentiles are computed over the
// sorted union, the result is independent of merge order — per-shard
// recorders merged in any order report identical tables.
func (l *LatencyRecorder) Merge(o *LatencyRecorder) {
	if o == nil || o.n == 0 {
		return
	}
	tail := o.tail // o may be l: read it before l.tail grows
	l.n += o.n
	l.sum += o.sum
	l.mergeRuns(o.runs, true)
	l.tail = append(l.tail, tail...)
	if len(l.tail) >= max(foldMin, len(l.runs)) {
		l.fold(true)
	}
}

// fold merges the tail into the runs. Record and Merge fold with reuse
// set: the tail is sorted and compacted in place and its array is kept
// for the next samples. Queries fold without it and write to no array
// the recorder already holds, so a by-value copy taken before the query
// still reads the same samples.
func (l *LatencyRecorder) fold(reuse bool) {
	if len(l.tail) == 0 {
		return
	}
	t := l.tail
	if !reuse {
		t = slices.Clone(t)
	}
	slices.SortFunc(t, func(a, b latRun) int { return cmp.Compare(a.d, b.d) })
	m := 0
	for _, r := range t {
		if m > 0 && t[m-1].d == r.d {
			t[m-1].n += r.n
			continue
		}
		t[m] = r
		m++
	}
	l.mergeRuns(t[:m], reuse)
	if reuse {
		l.tail = l.tail[:0]
	} else {
		l.tail = nil
	}
}

// mergeRuns adds rs, sorted with distinct values, to l.runs. With reuse
// set and no value that l.runs lacks, the counts are added in place;
// otherwise the union goes to a new array of exactly its length.
func (l *LatencyRecorder) mergeRuns(rs []latRun, reuse bool) {
	fresh, i := 0, 0 // fresh: values of rs that l.runs lacks
	for _, r := range rs {
		for i < len(l.runs) && l.runs[i].d < r.d {
			i++
		}
		if i == len(l.runs) || l.runs[i].d != r.d {
			fresh++
		}
	}
	if fresh == 0 && reuse {
		i = 0
		for _, r := range rs {
			for l.runs[i].d < r.d {
				i++
			}
			l.runs[i].n += r.n
		}
		return
	}
	out := make([]latRun, 0, len(l.runs)+fresh)
	i = 0
	for _, r := range rs {
		for i < len(l.runs) && l.runs[i].d < r.d {
			out = append(out, l.runs[i])
			i++
		}
		if i < len(l.runs) && l.runs[i].d == r.d {
			r.n += l.runs[i].n
			i++
		}
		out = append(out, r)
	}
	l.runs = append(out, l.runs[i:]...)
}

// Summary formats count/mean/p50/p99/p999/max on one line.
func (l *LatencyRecorder) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		l.Count(), l.Mean(), l.Percentile(50), l.Percentile(99), l.Percentile(99.9), l.Max())
}

// Counter is a named monotonic counter used by device models for
// observability (events processed, bytes moved, cache hits...).
type Counter struct {
	Name  string
	Value int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.Value += n }

// CounterSet is an ordered collection of counters.
type CounterSet struct {
	order []string
	m     map[string]*Counter
}

// Get returns (creating if needed) the named counter.
func (s *CounterSet) Get(name string) *Counter {
	if s.m == nil {
		s.m = make(map[string]*Counter)
	}
	if c, ok := s.m[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	s.m[name] = c
	s.order = append(s.order, name)
	return c
}

// Value returns the current value of the named counter (0 if absent).
func (s *CounterSet) Value(name string) int64 {
	if s.m == nil {
		return 0
	}
	if c, ok := s.m[name]; ok {
		return c.Value
	}
	return 0
}

// String renders all counters in creation order.
func (s *CounterSet) String() string {
	var b strings.Builder
	for i, name := range s.order {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, s.m[name].Value)
	}
	return b.String()
}

// Table is a minimal fixed-width text table used by the benchmark
// harness to print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
