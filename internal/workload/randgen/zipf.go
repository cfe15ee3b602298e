package randgen

import (
	"fmt"
	"math"
	"math/bits"
	randv2 "math/rand/v2"
)

// Zipf samples Zipf-distributed integers in [0, imax]: P(k) ∝ (v+k)^(-s),
// the same parameterisation as math/rand/v2's Zipf. Instead of
// rejection-inversion — two logs and a pow on every draw — the sampler
// precomputes a Walker/Vose alias table once per configuration, after which
// every draw is one bounded uniform, one compare and at most one table
// redirect: O(1) with no transcendentals in the loop.
//
// The table costs 16 bytes per key plus one math.Pow per key to build, so
// it is the right trade for the simulator's replayed key spaces (10⁵–10⁶
// keys redrawn millions of times). Key spaces past aliasMaxKeys would pay
// tens of megabytes for the table, so they fall back to the stdlib
// rejection-inversion sampler driven by the same stream — identical
// distribution, constant memory, slower per draw.
type Zipf struct {
	src *Stream
	n   uint64
	tab []aliasSlot
	// sink accumulates Prefetch's loads so the compiler keeps them.
	sink uint32

	fallback *randv2.Zipf // rejection-inversion for huge key spaces
}

// aliasSlot packs a slot's acceptance threshold and redirect target so a
// draw touches exactly one cache line: at table sizes past the L2 the slot
// lookup is the draw's dominant cost.
type aliasSlot struct {
	prob  float64
	alias uint32
}

// aliasMaxKeys bounds the alias table at 64 MB of slots (2²² × 16 B;
// construction transiently adds ~2× that in weights and worklists); it is
// a variable only so the fallback path stays testable at small sizes.
var aliasMaxKeys = uint64(1) << 22

// NewZipf builds a sampler drawing from src. It requires s > 1 and v ≥ 1,
// panicking on a bad configuration (the package's construct-time
// validation style). Any imax is accepted: key spaces past aliasMaxKeys —
// including the full uint64 range — take the constant-memory fallback.
func NewZipf(src *Stream, s, v float64, imax uint64) *Zipf {
	if s <= 1 || v < 1 {
		panic(fmt.Sprintf("randgen: bad Zipf parameters s=%v v=%v imax=%d", s, v, imax))
	}
	z := &Zipf{src: src, n: imax + 1}
	if imax >= aliasMaxKeys { // imax+1 may wrap at 2⁶⁴; compare pre-increment
		z.fallback = randv2.NewZipf(randv2.New(src), s, v, imax)
		return z
	}

	// Weights w_k = (v+k)^(-s), scaled so the mean slot weight is 1.
	w := make([]float64, z.n)
	var total float64
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
		total += w[k]
	}
	scale := float64(z.n) / total

	// Vose's stable alias construction: pair each under-full slot with an
	// over-full one; every slot ends with a threshold and a redirect.
	z.tab = make([]aliasSlot, z.n)
	small := make([]uint32, 0, z.n)
	large := make([]uint32, 0, z.n)
	for k := range w {
		w[k] *= scale
		if w[k] < 1 {
			small = append(small, uint32(k))
		} else {
			large = append(large, uint32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		z.tab[l] = aliasSlot{prob: w[l], alias: g}
		w[g] = (w[g] + w[l]) - 1
		if w[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Leftovers (either list) are exactly full up to rounding error.
	for _, k := range large {
		z.tab[k].prob = 1
	}
	for _, k := range small {
		z.tab[k].prob = 1
	}
	return z
}

// Uint64 returns the next Zipf variate: one stream draw, one 128-bit
// multiply, one slot load. The multiply's high word is the unbiased slot
// index (Lemire reduction) and its low word — the scaled draw's fractional
// part — doubles as the acceptance uniform. Given the index, that fraction
// is equidistributed with granularity n/2⁶⁴ (< 10⁻¹² here), a deviation
// orders of magnitude below the chi-square equivalence gate.
func (z *Zipf) Uint64() uint64 {
	if z.fallback != nil {
		return z.fallback.Uint64()
	}
	hi, lo := bits.Mul64(z.src.Uint64(), z.n)
	slot := z.tab[hi]
	if float64(lo>>11)*0x1p-53 < slot.prob {
		return hi
	}
	return uint64(slot.alias)
}

// Prefetch loads the alias slots that n future draws would select, without
// consuming any: the source stream's draws at offsets 1, 1+stride,
// 1+2·stride, ... from its current position. A caller whose draw pattern
// is fixed (a key, then stride-1 other draws, per item) calls it once per
// batch of n items, so the batch's slot misses overlap instead of each
// stalling its own draw — the table outgrows the cache past ~10⁵ keys and
// its slots are read uniformly at random. A mispredicted offset only wastes
// a load; the stream and every draw are untouched.
func (z *Zipf) Prefetch(n, stride int) {
	if z.tab == nil {
		return
	}
	st, skip := z.src.state, z.src.gamma*uint64(stride)
	var sum uint32
	for st += z.src.gamma; n > 0; n-- {
		hi, _ := bits.Mul64(mix64(st), z.n)
		sum += z.tab[hi].alias
		st += skip
	}
	z.sink += sum
}
