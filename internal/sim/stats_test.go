package sim

import (
	"math"
	"slices"
	"testing"
)

var latencyPercentiles = []float64{0.001, 1, 50, 99, 99.9, 100}

// checkAgainstSamples compares every statistic of l with the same
// statistic computed by sorting the raw samples.
func checkAgainstSamples(t *testing.T, what string, l *LatencyRecorder, samples []Duration) {
	t.Helper()
	s := slices.Clone(samples)
	slices.Sort(s)
	var sum Duration
	for _, d := range s {
		sum += d
	}
	var mean, lo, hi Duration
	if len(s) > 0 {
		mean, lo, hi = sum/Duration(len(s)), s[0], s[len(s)-1]
	}
	if got := l.Count(); got != len(s) {
		t.Fatalf("%s: Count = %d, want %d", what, got, len(s))
	}
	if got := l.Mean(); got != mean {
		t.Fatalf("%s: Mean = %v, want %v", what, got, mean)
	}
	if got := l.Min(); got != lo {
		t.Fatalf("%s: Min = %v, want %v", what, got, lo)
	}
	if got := l.Max(); got != hi {
		t.Fatalf("%s: Max = %v, want %v", what, got, hi)
	}
	for _, p := range latencyPercentiles {
		var want Duration
		if len(s) > 0 {
			rank := int(math.Ceil(p / 100 * float64(len(s))))
			want = s[min(max(rank, 1), len(s))-1]
		}
		if got := l.Percentile(p); got != want {
			t.Fatalf("%s: p%v = %v, want %v", what, p, got, want)
		}
	}
}

// latencySamples draws n samples over `distinct` values spread across
// a microsecond-scale range.
func latencySamples(seed uint64, n, distinct int) []Duration {
	r := NewRand(seed)
	out := make([]Duration, n)
	for i := range out {
		out[i] = Duration(1+r.Intn(distinct)) * 37 * Nanosecond
	}
	return out
}

func TestLatencyRecorderMatchesSortedSamples(t *testing.T) {
	const n = 5000
	// Query points before the first fold, just after it, mid-stream and
	// at the end; recording continues after every query.
	checkpoints := []int{0, 1, 10, foldMin - 1, foldMin, foldMin + 7, 3000, n}
	for _, distinct := range []int{1, 2, 10, 100, 1000, n, 1 << 30} {
		samples := latencySamples(uint64(distinct), n, distinct)
		var l LatencyRecorder
		next := 0
		for _, cp := range checkpoints {
			for ; next < cp; next++ {
				l.Record(samples[next])
			}
			// A by-value copy taken before a query reads the same
			// samples after the original is queried.
			c := l
			checkAgainstSamples(t, "recorder", &l, samples[:cp])
			checkAgainstSamples(t, "copy", &c, samples[:cp])
		}
	}
}

func TestLatencyRecorderMergeOrderIndependent(t *testing.T) {
	parts := [][]Duration{
		nil,                             // empty
		latencySamples(1, 40, 1000),     // tail only, never folded
		latencySamples(2, 2500, 50),     // folded runs plus a tail
		latencySamples(3, 3000, 1<<30),  // all distinct
		latencySamples(4, foldMin, 100), // folded exactly, empty tail
	}
	var union []Duration
	for _, p := range parts {
		union = append(union, p...)
	}
	build := func(i int) *LatencyRecorder {
		l := &LatencyRecorder{}
		for _, d := range parts[i] {
			l.Record(d)
		}
		return l
	}
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			var into LatencyRecorder
			srcs := make([]*LatencyRecorder, len(order))
			for j, i := range order {
				srcs[j] = build(i)
				into.Merge(srcs[j])
			}
			checkAgainstSamples(t, "merged", &into, union)
			for j, i := range order {
				checkAgainstSamples(t, "merge source", srcs[j], parts[i])
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3, 4}, 0)

	// Merging into a recorder that already holds samples, and merging a
	// recorder into itself, count every sample.
	l := build(2)
	l.Merge(build(1))
	l.Merge(l)
	doubled := append(append([]Duration(nil), parts[2]...), parts[1]...)
	checkAgainstSamples(t, "self-merged", l, append(doubled, doubled...))
}

func TestLatencyRecorderRunsStayBounded(t *testing.T) {
	var l LatencyRecorder
	r := NewRand(9)
	const n = 1_000_000
	for i := 0; i < n; i++ {
		l.Record(Duration(1+r.Intn(100)) * Microsecond)
	}
	if len(l.runs) > 100 {
		t.Fatalf("%d runs for 100 distinct values", len(l.runs))
	}
	if len(l.tail) >= foldMin || cap(l.tail) > 2*foldMin {
		t.Fatalf("tail len %d cap %d, want below %d and cap at most %d", len(l.tail), cap(l.tail), foldMin, 2*foldMin)
	}
	if l.Count() != n {
		t.Fatalf("Count = %d, want %d", l.Count(), n)
	}
}

var rawLatencySink []Duration

func TestLatencyRecorderRecordAllocs(t *testing.T) {
	// Amortized over many samples, Record allocates no more often than
	// appending the raw samples to a slice.
	const n = 100_000
	counted := testing.AllocsPerRun(5, func() {
		var l LatencyRecorder
		for i := 0; i < n; i++ {
			l.Record(Duration(i%100) * Microsecond)
		}
	})
	raw := testing.AllocsPerRun(5, func() {
		var s []Duration
		for i := 0; i < n; i++ {
			s = append(s, Duration(i%100)*Microsecond)
		}
		rawLatencySink = s
	})
	if counted > raw {
		t.Fatalf("Record: %v allocs per %d samples, raw append %v", counted, n, raw)
	}
}

func BenchmarkLatencyRecord(b *testing.B) {
	r := NewRand(1)
	samples := make([]Duration, 4096)
	for i := range samples {
		samples[i] = Duration(1+r.Intn(100)) * Microsecond
	}
	var l LatencyRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(samples[i%len(samples)])
	}
	if l.Count() != b.N {
		b.Fatal("lost samples")
	}
}

func TestLatencyRecorderFoldAddsOneValue(t *testing.T) {
	// A fold that brings exactly one new value, below, between or above
	// the existing runs, must insert it rather than add to a neighbour.
	for _, fresh := range []Duration{1, 5, 9} {
		var l LatencyRecorder
		var samples []Duration
		rec := func(d Duration) {
			l.Record(d)
			samples = append(samples, d)
		}
		for i := 0; i < foldMin; i++ {
			rec(Duration(4 + 2*(i%3)))
		}
		for i := 0; i < foldMin-1; i++ {
			rec(6)
		}
		rec(fresh)
		if len(l.tail) != 0 {
			t.Fatalf("tail of %d not folded", len(l.tail))
		}
		checkAgainstSamples(t, "one new value", &l, samples)
	}
}
