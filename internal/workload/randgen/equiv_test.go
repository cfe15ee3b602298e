package randgen

import (
	"math"
	randv2 "math/rand/v2"
	"testing"
)

// Statistical equivalence gates (run in CI): the alias-table Zipf and the
// ziggurat exp/normal must match their reference distributions within
// chi-square tolerance. Seeds are fixed, so each statistic is one
// deterministic number — the thresholds sit well above the p=0.001
// critical values, with the reference samplers held to the same gate to
// show the tolerance is honest.

// chiSquareExpected is the one-sample statistic of observed bucket counts
// against expected probabilities: Σ (obs-n·p)²/(n·p) ~ χ²_{k-1}.
func chiSquareExpected(obs []int, p []float64, n int) float64 {
	var stat float64
	for i, o := range obs {
		exp := float64(n) * p[i]
		d := float64(o) - exp
		stat += d * d / exp
	}
	return stat
}

// chiSquareTwoSample compares two equal-size count vectors:
// Σ (a-b)²/(a+b) ~ χ²_{k-1}.
func chiSquareTwoSample(a, b []int) float64 {
	var stat float64
	for i := range a {
		if s := a[i] + b[i]; s > 0 {
			d := float64(a[i] - b[i])
			stat += d * d / float64(s)
		}
	}
	return stat
}

// zipfBuckets maps Zipf draws to the first 30 keys individually plus one
// tail bucket — the head carries most of the mass, the tail checks the
// aggregate remainder.
func zipfBuckets(draw func() uint64, samples int) []int {
	const head = 30
	obs := make([]int, head+1)
	for i := 0; i < samples; i++ {
		k := draw()
		if k < head {
			obs[k]++
		} else {
			obs[head]++
		}
	}
	return obs
}

func TestZipfAliasMatchesAnalyticAndReference(t *testing.T) {
	const (
		sExp    = 1.1
		v       = 1.0
		imax    = uint64(9_999)
		samples = 300_000
		// df = 30; χ²(0.001, 30) ≈ 59.7.
		limit = 80.0
	)
	// Exact head probabilities plus the aggregated tail.
	probs := make([]float64, 31)
	var total float64
	weights := make([]float64, imax+1)
	for k := range weights {
		weights[k] = math.Pow(v+float64(k), -sExp)
		total += weights[k]
	}
	var headMass float64
	for k := 0; k < 30; k++ {
		probs[k] = weights[k] / total
		headMass += probs[k]
	}
	probs[30] = 1 - headMass

	alias := NewZipf(Split(1, 1), sExp, v, imax)
	ref := randv2.NewZipf(randv2.New(Split(1, 2)), sExp, v, imax)
	aliasObs := zipfBuckets(alias.Uint64, samples)
	refObs := zipfBuckets(ref.Uint64, samples)

	if stat := chiSquareExpected(aliasObs, probs, samples); stat > limit {
		t.Errorf("alias Zipf vs analytic: χ² = %.1f, limit %.1f", stat, limit)
	}
	if stat := chiSquareExpected(refObs, probs, samples); stat > limit {
		t.Errorf("reference Zipf vs analytic: χ² = %.1f, limit %.1f (tolerance miscalibrated)", stat, limit)
	}
	if stat := chiSquareTwoSample(aliasObs, refObs); stat > limit {
		t.Errorf("alias vs reference Zipf: two-sample χ² = %.1f, limit %.1f", stat, limit)
	}
}

func TestZipfFallbackMatchesAliasDistribution(t *testing.T) {
	// Shrink the alias ceiling so the same configuration builds both
	// implementations, then hold them to the two-sample gate.
	prev := aliasMaxKeys
	aliasMaxKeys = 4
	fallback := NewZipf(Split(2, 1), 1.2, 1, 4_999)
	aliasMaxKeys = prev
	defer func() { aliasMaxKeys = prev }()
	if fallback.fallback == nil {
		t.Fatal("lowered ceiling did not select the rejection-inversion fallback")
	}
	alias := NewZipf(Split(2, 2), 1.2, 1, 4_999)
	if alias.fallback != nil {
		t.Fatal("restored ceiling still selects the fallback")
	}
	const samples = 200_000
	a := zipfBuckets(alias.Uint64, samples)
	b := zipfBuckets(fallback.Uint64, samples)
	if stat := chiSquareTwoSample(a, b); stat > 80 {
		t.Errorf("alias vs fallback: two-sample χ² = %.1f, limit 80", stat)
	}
}

// Key spaces past the alias ceiling — up to the full uint64 range — must
// construct in O(1) memory via the fallback instead of panicking: the
// driver's Validate accepts any positive key count.
func TestZipfHugeKeySpaceUsesFallback(t *testing.T) {
	for _, imax := range []uint64{1 << 33, math.MaxUint64} {
		z := NewZipf(New(9), 1.1, 1, imax)
		if z.fallback == nil {
			t.Fatalf("imax=%d built an alias table", imax)
		}
		for i := 0; i < 1000; i++ {
			if k := z.Uint64(); k > imax {
				t.Fatalf("imax=%d draw %d out of range", imax, k)
			}
		}
	}
}

func TestZipfDrawsStayInRange(t *testing.T) {
	z := NewZipf(New(5), 1.5, 1, 99)
	for i := 0; i < 50_000; i++ {
		if k := z.Uint64(); k > 99 {
			t.Fatalf("Zipf draw %d outside [0, 99]", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf with s <= 1 must panic")
		}
	}()
	NewZipf(New(5), 1, 1, 99)
}

// TestZipfPrefetchConsumesNoDraws pins that Prefetch is invisible to the
// stream: interleaving it with draws (and with other draws on the shared
// stream) leaves every variate unchanged, on the alias table and the
// fallback alike.
func TestZipfPrefetchConsumesNoDraws(t *testing.T) {
	for _, imax := range []uint64{999, aliasMaxKeys} {
		plain, fetched := New(11), New(11)
		zp, zf := NewZipf(plain, 1.1, 1, imax), NewZipf(fetched, 1.1, 1, imax)
		for i := 0; i < 10_000; i++ {
			if i%8 == 0 {
				zf.Prefetch(8, 3)
			}
			if a, b := zp.Uint64(), zf.Uint64(); a != b {
				t.Fatalf("imax=%d draw %d: %d without prefetch, %d with", imax, i, a, b)
			}
			if a, b := plain.Uint64(), fetched.Uint64(); a != b {
				t.Fatalf("imax=%d draw %d: shared stream diverged", imax, i)
			}
		}
	}
}

// expBucketProbs returns k equal-probability buckets of Exp(1); edges are
// the analytic quantiles, so every bucket expects samples/k hits.
func expBucketEdges(k int) []float64 {
	edges := make([]float64, k-1)
	for i := 1; i < k; i++ {
		edges[i-1] = -math.Log(1 - float64(i)/float64(k))
	}
	return edges
}

func bucketize(edges []float64, draw func() float64, samples int) []int {
	obs := make([]int, len(edges)+1)
	for i := 0; i < samples; i++ {
		x := draw()
		lo := 0
		for lo < len(edges) && x >= edges[lo] {
			lo++
		}
		obs[lo]++
	}
	return obs
}

func TestZigguratExpMatchesStdlib(t *testing.T) {
	const (
		samples = 300_000
		k       = 32
		// df = 31; χ²(0.001, 31) ≈ 61.1.
		limit = 80.0
	)
	edges := expBucketEdges(k)
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1.0 / k
	}
	zig := Split(3, 1)
	ref := randv2.New(Split(3, 2))
	zigObs := bucketize(edges, zig.ExpFloat64, samples)
	refObs := bucketize(edges, ref.ExpFloat64, samples)
	if stat := chiSquareExpected(zigObs, probs, samples); stat > limit {
		t.Errorf("ziggurat exp vs analytic: χ² = %.1f, limit %.1f", stat, limit)
	}
	if stat := chiSquareExpected(refObs, probs, samples); stat > limit {
		t.Errorf("stdlib exp vs analytic: χ² = %.1f, limit %.1f (tolerance miscalibrated)", stat, limit)
	}
	if stat := chiSquareTwoSample(zigObs, refObs); stat > limit {
		t.Errorf("ziggurat vs stdlib exp: two-sample χ² = %.1f, limit %.1f", stat, limit)
	}
}

// stdNormCDF is Φ(x) via erf.
func stdNormCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

func TestZigguratNormMatchesStdlib(t *testing.T) {
	const (
		samples = 300_000
		limit   = 80.0 // df = 14; χ²(0.001, 14) ≈ 36.1 — generous headroom
	)
	edges := []float64{-3, -2.5, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3}
	probs := make([]float64, len(edges)+1)
	prev := 0.0
	for i, e := range edges {
		c := stdNormCDF(e)
		probs[i] = c - prev
		prev = c
	}
	probs[len(edges)] = 1 - prev

	zig := Split(4, 1)
	ref := randv2.New(Split(4, 2))
	zigObs := bucketize(edges, zig.NormFloat64, samples)
	refObs := bucketize(edges, ref.NormFloat64, samples)
	if stat := chiSquareExpected(zigObs, probs, samples); stat > limit {
		t.Errorf("ziggurat normal vs analytic: χ² = %.1f, limit %.1f", stat, limit)
	}
	if stat := chiSquareExpected(refObs, probs, samples); stat > limit {
		t.Errorf("stdlib normal vs analytic: χ² = %.1f, limit %.1f (tolerance miscalibrated)", stat, limit)
	}
	if stat := chiSquareTwoSample(zigObs, refObs); stat > limit {
		t.Errorf("ziggurat vs stdlib normal: two-sample χ² = %.1f, limit %.1f", stat, limit)
	}
}

func TestZigguratMomentsAndTails(t *testing.T) {
	s := Split(6, 1)
	const n = 500_000
	var expSum, normSum, normSq float64
	expBeyondR, normBeyondR := 0, 0
	for i := 0; i < n; i++ {
		e := s.ExpFloat64()
		if e < 0 {
			t.Fatalf("negative exponential variate %v", e)
		}
		if e > zigExpR {
			expBeyondR++
		}
		expSum += e
		z := s.NormFloat64()
		if math.Abs(z) > zigNormR {
			normBeyondR++
		}
		normSum += z
		normSq += z * z
	}
	if mean := expSum / n; mean < 0.99 || mean > 1.01 {
		t.Errorf("exponential mean %.4f, want ≈1", mean)
	}
	if mean := normSum / n; math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %.4f, want ≈0", mean)
	}
	if v := normSq / n; v < 0.99 || v > 1.01 {
		t.Errorf("normal variance %.4f, want ≈1", v)
	}
	// The tail paths must actually run: P(Exp > R) ≈ 4.5e-4,
	// P(|N| > R) ≈ 5.8e-4 — hundreds of hits in 500k draws.
	if expBeyondR == 0 || normBeyondR == 0 {
		t.Errorf("tail paths unexercised: exp %d, norm %d draws beyond R", expBeyondR, normBeyondR)
	}
}

func TestFastExpAccuracy(t *testing.T) {
	// Sweep the jitter-relevant range densely and the full clamped range
	// coarsely; FastExp must track math.Exp to ≤1e-9 relative error.
	check := func(x float64) {
		want := math.Exp(x)
		got := FastExp(x)
		if want == 0 || math.IsInf(want, 1) {
			if got != want {
				t.Fatalf("FastExp(%v) = %v, want %v", x, got, want)
			}
			return
		}
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Fatalf("FastExp(%v) = %v, want %v (rel err %.2e)", x, got, want, rel)
		}
	}
	for x := -6.0; x <= 6.0; x += 1e-4 {
		check(x)
	}
	for x := -400.0; x <= 400.0; x += 0.37 {
		check(x)
	}
	check(0)
	if !math.IsNaN(FastExp(math.NaN())) {
		t.Error("FastExp(NaN) must be NaN")
	}
}

func TestFastExpDeterministicAcrossCalls(t *testing.T) {
	for _, x := range []float64{-2.5, -0.13, 0, 0.13, 2.5} {
		if FastExp(x) != FastExp(x) {
			t.Fatalf("FastExp(%v) not reproducible", x)
		}
	}
}
