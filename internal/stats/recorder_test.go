package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder("x")
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Min() != 0 {
		t.Fatal("empty recorder must report zeros")
	}
	for _, d := range []time.Duration{10, 20, 30} {
		r.Record(d)
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Mean() != 20 {
		t.Fatalf("mean = %v, want 20", r.Mean())
	}
	if r.Min() != 10 || r.Max() != 30 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	if r.Total() != 60 {
		t.Fatalf("total = %v", r.Total())
	}
}

func TestRecorderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sample must panic")
		}
	}()
	NewRecorder("x").Record(-1)
}

func TestPercentileExactValues(t *testing.T) {
	r := NewRecorder("x")
	// 1..100 → p-th percentile interpolates cleanly.
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i))
	}
	tests := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1},
		{100, 100},
		{50, 50}, // rank 49.5 → 50.5 truncated by Duration math
		{99, 99},
	}
	for _, tc := range tests {
		got := r.Percentile(tc.q)
		if got < tc.want-1 || got > tc.want+1 {
			t.Errorf("p%v = %v, want ~%v", tc.q, got, tc.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	r := NewRecorder("x")
	r.Record(42)
	for _, q := range []float64{0, 50, 99, 100} {
		if got := r.Percentile(q); got != 42 {
			t.Fatalf("p%v = %v, want 42", q, got)
		}
	}
}

func TestPercentileClampsQ(t *testing.T) {
	r := NewRecorder("x")
	r.Record(1)
	r.Record(2)
	if r.Percentile(-5) != 1 {
		t.Fatal("q<0 must clamp to min")
	}
	if r.Percentile(150) != 2 {
		t.Fatal("q>100 must clamp to max")
	}
}

func TestRecordAfterPercentileKeepsCorrectness(t *testing.T) {
	r := NewRecorder("x")
	r.Record(10)
	_ = r.Percentile(50) // forces a sort
	r.Record(5)          // must invalidate sorted state
	if r.Min() != 5 {
		t.Fatalf("min = %v, want 5", r.Min())
	}
}

func TestViolationRatio(t *testing.T) {
	r := NewRecorder("x")
	for i := 1; i <= 10; i++ {
		r.Record(time.Duration(i * 100))
	}
	tests := []struct {
		slo  time.Duration
		want float64
	}{
		{1000, 0},  // nothing above max
		{0, 1},     // everything above zero
		{500, 0.5}, // 600..1000 violate
		{550, 0.5}, // boundary between samples
		{100, 0.9}, // only the first meets it (ties do not violate)
		{99, 1.0},  // all violate
		{999, 0.1}, // only 1000 violates
	}
	for _, tc := range tests {
		if got := r.ViolationRatio(tc.slo); got != tc.want {
			t.Errorf("ViolationRatio(%v) = %v, want %v", tc.slo, got, tc.want)
		}
	}
}

func TestSummaryAtAndKeys(t *testing.T) {
	r := NewRecorder("series")
	for i := 1; i <= 1000; i++ {
		r.Record(time.Duration(i))
	}
	s := r.Summarize()
	if s.Name != "series" || s.Count != 1000 {
		t.Fatalf("summary header wrong: %+v", s)
	}
	for _, key := range PercentileKeys {
		if s.At(key) <= 0 {
			t.Errorf("At(%q) = %v, want > 0", key, s.At(key))
		}
	}
	if s.At("p50") != s.P50 || s.At("max") != s.Max {
		t.Fatal("At() disagrees with fields")
	}
	// Percentiles must be monotone.
	if !(s.P50 <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
}

func TestSummaryAtUnknownKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown key must panic")
		}
	}()
	Summary{}.At("p12")
}

func TestReduction(t *testing.T) {
	base := Summary{Mean: 100}
	improved := Summary{Mean: 60}
	if got := Reduction(base, improved, "avg"); got != 40 {
		t.Fatalf("reduction = %v, want 40", got)
	}
	worse := Summary{Mean: 150}
	if got := Reduction(base, worse, "avg"); got != -50 {
		t.Fatalf("reduction = %v, want -50", got)
	}
	if got := Reduction(Summary{}, improved, "avg"); got != 0 {
		t.Fatalf("reduction with zero base = %v, want 0", got)
	}
}

// Property: percentile is monotone in q and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder("p")
		for _, v := range raw {
			r.Record(time.Duration(v))
		}
		lo, hi := float64(qa%101), float64(qb%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		pa, pb := r.Percentile(lo), r.Percentile(hi)
		return pa <= pb && pa >= r.Min() && pb <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ViolationRatio equals the brute-force count for random data.
func TestViolationRatioMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 50; trial++ {
		r := NewRecorder("v")
		var vals []time.Duration
		n := 1 + rng.IntN(200)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.IntN(1000))
			vals = append(vals, d)
			r.Record(d)
		}
		slo := time.Duration(rng.IntN(1000))
		var above int
		for _, v := range vals {
			if v > slo {
				above++
			}
		}
		want := float64(above) / float64(n)
		if got := r.ViolationRatio(slo); got != want {
			t.Fatalf("trial %d: ViolationRatio(%v) = %v, want %v", trial, slo, got, want)
		}
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder("m")
		for _, v := range raw {
			r.Record(time.Duration(v))
		}
		return r.Mean() >= r.Min() && r.Mean() <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryStringContainsName(t *testing.T) {
	r := NewRecorder("Hermes+anon")
	r.Record(time.Microsecond)
	s := r.Summarize().String()
	if !strings.Contains(s, "Hermes+anon") {
		t.Fatalf("summary string %q lacks series name", s)
	}
}

// TestRawMergeMatchesSortOracle folds seeded random sample sets into one
// raw recorder — each side sorted or not, empty sides, self-merges — and
// after every merge checks each query against an append-then-sort oracle.
// A merge of two sorted sides must leave the recorder sorted, so that the
// cluster's leaf-sorted finalization never sorts the same samples twice.
func TestRawMergeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	fill := func(name string) *Recorder {
		r := NewRecorder(name)
		n := rng.IntN(40)
		if rng.IntN(4) == 0 {
			n = 0
		}
		for range n {
			r.Record(time.Duration(rng.IntN(25))) // small range: many ties
		}
		if rng.IntN(2) == 0 {
			r.Sort()
		}
		return r
	}
	for trial := range 200 {
		r := fill("r")
		oracle := slices.Clone(r.samples)
		for step := range 6 {
			o := r
			if rng.IntN(5) != 0 {
				o = fill("o")
			} else if rng.IntN(2) == 0 {
				// Room to grow in place: the self-merge reads and writes
				// one buffer.
				r.Reserve(len(r.samples))
			}
			bothSorted := r.sorted && o.sorted && len(o.samples) > 0
			oracle = append(oracle, o.samples...)
			r.Merge(o)
			slices.Sort(oracle)
			if bothSorted && !r.sorted {
				t.Fatalf("trial %d step %d: sorted+sorted merge left the recorder unsorted", trial, step)
			}
			if r.sorted && !slices.IsSorted(r.samples) {
				t.Fatalf("trial %d step %d: recorder marked sorted holds %v", trial, step, r.samples)
			}
			want := NewRecorder("r")
			for _, d := range oracle {
				want.Record(d)
			}
			checkSameQueries(t, r, want)
			if !slices.Equal(r.samples, oracle) {
				t.Fatalf("trial %d step %d: samples %v, oracle %v", trial, step, r.samples, oracle)
			}
			if rng.IntN(3) == 0 {
				// Leave the next merge an unsorted receiver.
				r.Record(time.Duration(rng.IntN(25)))
				oracle = append(oracle, r.samples[len(r.samples)-1])
			}
		}
	}
}

// checkSameQueries fails t unless every exported query answers the same on
// got and want.
func checkSameQueries(t *testing.T, got, want *Recorder) {
	t.Helper()
	if got.Summarize() != want.Summarize() {
		t.Fatalf("Summarize = %+v, want %+v", got.Summarize(), want.Summarize())
	}
	if !slices.Equal(got.CDF(7), want.CDF(7)) || !slices.Equal(got.TailCDF(0.9, 5), want.TailCDF(0.9, 5)) {
		t.Fatal("CDF/TailCDF differ from the oracle")
	}
	for _, d := range []time.Duration{0, 3, 12, 24, 30} {
		if got.CountAbove(d) != want.CountAbove(d) || got.ViolationRatio(d) != want.ViolationRatio(d) {
			t.Fatalf("CountAbove/ViolationRatio(%v) differ from the oracle", d)
		}
	}
	if got.Min() != want.Min() || got.Max() != want.Max() || got.Total() != want.Total() {
		t.Fatal("Min/Max/Total differ from the oracle")
	}
}

// TestRadixSortMatchesSlicesSort pins Recorder.Sort's radix sort to
// slices.Sort on the inputs where an MSD byte sort can go wrong: runs shorter
// than, at and around multiples of the hand-over cutoff, constant runs (no
// byte to split on), samples whose high bytes are set or constant, and the
// sorted, reversed and heavy-tailed shapes latency recorders hold.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 0))
	fill := func(n int, draw func(i int) time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = draw(i)
		}
		return out
	}
	uniform := func(lo, hi int64) func(int) time.Duration {
		return func(int) time.Duration { return time.Duration(lo + rng.Int64N(hi-lo)) }
	}
	inputs := map[string][]time.Duration{
		"empty":     {},
		"one":       {42},
		"equal":     fill(1000, func(int) time.Duration { return 7 }),
		"zeros":     fill(700, func(int) time.Duration { return 0 }),
		"high":      fill(3000, uniform(1<<56, math.MaxInt64)),
		"maxint":    fill(2000, func(i int) time.Duration { return []time.Duration{0, 1, math.MaxInt64}[i%3] }),
		"lowbyte":   fill(2000, uniform(1<<40, 1<<40+300)), // constant high bytes
		"sparse":    fill(4000, func(int) time.Duration { return time.Duration(rng.IntN(4)) << 48 }),
		"sorted":    fill(5000, func(i int) time.Duration { return time.Duration(i * 37) }),
		"reversed":  fill(5000, func(i int) time.Duration { return time.Duration((5000 - i) * 1013) }),
		"heavytail": zipfLatencies(50_000, 3),
	}
	for _, n := range []int{1, 255, 256, 257, 511, 512, 513, 767, 768, 769, 1024, 65_536} {
		inputs[fmt.Sprintf("n=%d", n)] = fill(n, uniform(0, 1<<20))
		inputs[fmt.Sprintf("n=%d/ties", n)] = fill(n, uniform(0, 300))
	}
	for name, in := range inputs {
		oracle := slices.Clone(in)
		slices.Sort(oracle)
		got, want := NewRecorder(name), NewRecorder(name)
		for _, d := range in {
			got.Record(d)
			want.Record(d)
		}
		got.Sort()
		if !slices.Equal(got.samples, oracle) {
			t.Fatalf("%s: radix sort differs from slices.Sort", name)
		}
		want.samples, want.sorted = oracle, true
		checkSameQueries(t, got, want)
		for range 20 {
			if len(in) == 0 {
				break
			}
			d := in[rng.IntN(len(in))]
			if got.CountAbove(d) != want.CountAbove(d) || got.CountAbove(d-1) != want.CountAbove(d-1) {
				t.Fatalf("%s: CountAbove(%v) differs from the oracle", name, d)
			}
		}
	}
}

func TestRecorderSortAllocatesNothing(t *testing.T) {
	src := zipfLatencies(100_000, 11)
	r := NewRecorder("sort")
	for _, d := range src {
		r.Record(d)
	}
	allocs := testing.AllocsPerRun(5, func() {
		copy(r.samples, src)
		r.sorted = false
		r.Sort()
	})
	if allocs != 0 {
		t.Fatalf("Sort of %d samples allocated %.0f times, want 0", len(src), allocs)
	}
}

func BenchmarkRecorderSortRaw(b *testing.B) {
	src := zipfLatencies(100_000, 11)
	r := NewRecorder("bench")
	for _, d := range src {
		r.Record(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(r.samples, src)
		r.sorted = false
		b.StartTimer()
		r.Sort()
	}
}
