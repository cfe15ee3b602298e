package main

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// The host's CPU speed drifts by up to 1.8× in phases that last from
// seconds to longer than a whole run: other tenants of the machine contend
// for its cores and caches, and no statistic over one run's iterations can
// see past a phase that covers all of them. So every measured segment (an
// iteration's measured calls, the set-up sampling) is timed between two
// blocks of a fixed reference loop, and the end-to-end host times are
// reported in normalised seconds:
//
//	measured × refNominal / mean(median loop before, median loop after)
//
// The reference runs for refLead before the first segment and for a tenth
// of each segment's duration after it, so a long segment is bracketed by
// many loops. The loop does the two kinds of work the simulator mostly
// does (see refLoop), so it slows down in the same phases. It is part of
// the benchmark and must not change, or normalised seconds from before
// and after the change stop being comparable. The raw medians are printed
// beside the normalised ones.
const (
	refKeys    = 200_000
	refLookups = 500_000
	refFiles   = 168
	refOwners  = 968
	refScans   = 20 * refOwners
	// refNominal is the reference loop's time on an uncontended host (an
	// Intel Xeon VM with 2 vCPUs, go1.24), so that there normalised
	// seconds equal host seconds.
	refNominal = 75 * time.Millisecond
)

var refSink int64

// refFile is a record of the reference's small table.
type refFile struct {
	name  string
	owner int
	pages int64
}

// refTable is the reference's small table: refFiles records spread over
// refOwners owners, like a Table 1 cell's batch files.
var refTable = func() map[int]*refFile {
	t := make(map[int]*refFile, refFiles)
	for i := 0; i < refFiles; i++ {
		t[i] = &refFile{name: fmt.Sprintf("file-%03d", i), owner: i * refOwners / refFiles, pages: int64(mix64(uint64(i)) % 512)}
	}
	return t
}()

// refLoop times the reference computation once. It has two parts of
// similar length, for the two kinds of work the simulator's host time
// goes to, which slow down differently under contention: a memory-bound
// part (refKeys inserts into a new Go map, then refLookups scattered
// lookups, like the request path's tables) and a cache-resident, branchy
// part (refScans filters of the small table by owner, each result sorted,
// like the kernel's per-process file scans that dominate Table 1). It
// starts from a heap collected and returned to the OS, so that neither
// the segment before it is charged to it nor its own pages stack on the
// segment's in the process's peak resident memory.
func refLoop() time.Duration {
	debug.FreeOSMemory()
	start := time.Now()
	keys := make([]int64, refKeys)
	m := make(map[int64]int64)
	for i := range keys {
		keys[i] = int64(mix64(uint64(i)))
		m[keys[i]] = int64(i)
	}
	var s int64
	for i := 0; i < refLookups; i++ {
		s += m[keys[i*7919%refKeys]]
	}
	for i := 0; i < refScans; i++ {
		var out []*refFile
		for _, f := range refTable {
			if f.owner == i%refOwners {
				out = append(out, f)
			}
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].pages != out[b].pages {
				return out[a].pages > out[b].pages
			}
			return out[a].name < out[b].name
		})
		s += int64(len(out))
	}
	refSink += s
	return time.Since(start)
}

// speedRef holds the reference timings of one run.
type speedRef struct {
	last    float64
	samples []float64
}

const (
	// refLead is how long the reference runs before the first segment.
	refLead = time.Second
	// refShare is the share of a segment's duration the reference runs
	// after it (at least once), so that the speed a long segment is
	// normalised by is not a single loop's.
	refShare = 0.1
)

// newSpeedRef times the reference ahead of the first segment.
func newSpeedRef() *speedRef {
	r := &speedRef{}
	r.last = r.block(refLead)
	return r
}

// block runs the reference loop for at least d (at least once) and
// returns the median loop time in seconds.
func (r *speedRef) block(d time.Duration) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) == 0 || time.Since(start) < d {
		xs = append(xs, refLoop().Seconds())
	}
	r.samples = append(r.samples, xs...)
	return median(xs)
}

// scale runs the reference block that follows a segment of duration d,
// measured since the previous block, and returns the factor that converts
// the segment's host seconds into normalised seconds.
func (r *speedRef) scale(d time.Duration) float64 {
	before := r.last
	r.last = r.block(time.Duration(refShare * float64(d)))
	return refNominal.Seconds() / ((before + r.last) / 2)
}

// normalise returns an iteration's run time in normalised seconds: the
// sampler's when it timed the run, else the run's host time scaled by the
// blocks before and after it. After a sampled run it times one loop, so
// that the next segment's block before is recent.
func (r *speedRef) normalise(it iteration) float64 {
	if it.sampled {
		r.last = r.block(0)
		return it.normRun
	}
	return it.run.Seconds() * r.scale(it.run)
}

// median returns the median reference time in seconds.
func (r *speedRef) median() float64 { return median(r.samples) }

// A paper-quick iteration is one ~30 s pass, almost all of it a single
// Table1 call: longer than many speed phases, so the blocks that bracket
// it cannot see a phase change inside it (normalised that way, its time
// spread more than its raw time). For such workloads a sampler goroutine
// wakes every samplePeriod while the measured calls run and times one
// short piece of reference work (refPiece). The process runs on one P, so
// the piece runs on the same core, between the workload's time slices, in
// whatever phase the workload is in. The iteration's host time is its
// wall time less the pieces', and its normalised time is the sum over the
// gaps between pieces of
//
//	gap × pieceNominal / median(the pieceWindow pieces around the gap)
//
// The piece is refLoop's cache-resident part only. A piece with scattered
// lookups into a 200k-key map as well slowed down more than Table1 in the
// same slow phases, and left twice the spread across runs.
const (
	samplePeriod = 50 * time.Millisecond
	pieceWindow  = 9
	pieceScans   = 4000
	// pieceNominal is about refPiece's time inside a paper-quick run in
	// a fast phase, so that there normalised seconds are about host
	// seconds. (Run back to back with refLoop, warm, the piece takes
	// about 520 µs where the loop takes 75 ms.)
	pieceNominal = 450 * time.Microsecond
)

// pieceFile is a pointer-free copy of a refTable record, so that a piece
// run during the workload's garbage collection meets no write barriers.
type pieceFile struct {
	owner, pages, id int
}

var (
	pieceTable []pieceFile
	pieceOut   []pieceFile
	pieceNext  int
)

// initPiece builds refPiece's table once, before any timed segment, in a
// map's iteration order.
func initPiece() {
	if pieceTable != nil {
		return
	}
	for id, f := range refTable {
		pieceTable = append(pieceTable, pieceFile{owner: f.owner, pages: int(f.pages), id: id})
	}
	pieceOut = make([]pieceFile, 0, len(pieceTable))
}

// refPiece times one piece of reference work: pieceScans owner-filtered,
// sorted scans of the small table, continuing with the owner after the
// previous piece's last. It allocates nothing.
func refPiece() time.Duration {
	start := time.Now()
	var s int64
	for i := 0; i < pieceScans; i++ {
		owner := pieceNext % refOwners
		pieceNext++
		out := pieceOut[:0]
		for _, f := range pieceTable {
			if f.owner == owner {
				out = append(out, f)
			}
		}
		slices.SortFunc(out, func(a, b pieceFile) int {
			if a.pages != b.pages {
				return b.pages - a.pages
			}
			return a.id - b.id
		})
		s += int64(len(out))
	}
	refSink += s
	return time.Since(start)
}

// sampler times reference pieces while a segment runs.
type sampler struct {
	stop   chan struct{}
	done   chan struct{}
	halted bool
	start  []time.Time
	dur    []time.Duration
}

func startSampler() *sampler {
	initPiece()
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			s.start = append(s.start, time.Now())
			s.dur = append(s.dur, refPiece())
		}
	}()
	return s
}

// halt stops the sampler and waits for it; it may be called again.
func (s *sampler) halt() {
	if !s.halted {
		s.halted = true
		close(s.stop)
	}
	<-s.done
}

// finish stops the sampler and returns the host time and the normalised
// seconds of the segment that ran from t0 to t1, the pieces taken out;
// ok is false when no piece ran.
func (s *sampler) finish(t0, t1 time.Time) (host time.Duration, norm float64, ok bool) {
	s.halt()
	n := len(s.dur)
	if n == 0 {
		return t1.Sub(t0), 0, false
	}
	scale := make([]float64, n)
	for i := range scale {
		lo, hi := max(0, i-pieceWindow/2), min(n, i+pieceWindow/2+1)
		xs := make([]float64, 0, hi-lo)
		for _, d := range s.dur[lo:hi] {
			xs = append(xs, d.Seconds())
		}
		scale[i] = pieceNominal.Seconds() / median(xs)
	}
	prev := t0
	for i, st := range s.start {
		// A piece that started after the segment ended (the sampler
		// woke between the last call and finish) has no gap before it.
		if st.After(t1) {
			st = t1
		}
		gap := st.Sub(prev)
		host += gap
		norm += gap.Seconds() * scale[i]
		prev = st.Add(s.dur[i])
	}
	if t1.After(prev) {
		host += t1.Sub(prev)
		norm += t1.Sub(prev).Seconds() * scale[n-1]
	}
	return host, norm, true
}
