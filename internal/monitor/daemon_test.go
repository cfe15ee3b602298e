package monitor

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

func newTestNode(t *testing.T) (*kernel.Kernel, *simtime.Scheduler) {
	t.Helper()
	s := simtime.NewScheduler()
	cfg := kernel.DefaultConfig()
	cfg.TotalMemory = 256 << 20
	cfg.SwapBytes = 128 << 20
	k := kernel.New(s, cfg)
	return k, s
}

func TestRegistrySets(t *testing.T) {
	r := NewRegistry()
	r.AddLatencyCritical(1)
	r.AddBatch(2)
	r.AddBatch(3)
	if !r.IsLatencyCritical(1) || r.IsLatencyCritical(2) {
		t.Fatal("latency-critical set wrong")
	}
	if !r.IsBatch(2) || !r.IsBatch(3) || r.IsBatch(1) {
		t.Fatal("batch set wrong")
	}
	if got := len(r.BatchPIDs()); got != 2 {
		t.Fatalf("batch pids = %d, want 2", got)
	}
	r.RemoveBatch(2)
	if r.IsBatch(2) {
		t.Fatal("remove batch failed")
	}
	r.RemoveLatencyCritical(1)
	if r.IsLatencyCritical(1) || r.LatencyCriticalCount() != 0 {
		t.Fatal("remove latency-critical failed")
	}
}

func TestDaemonIdleBelowThreshold(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	batch := k.CreateProcess("batch")
	reg.AddBatch(batch.PID)
	f := k.CreateFile("input.dat", 2048, batch.PID)
	k.ReadFile(s.Now(), f, 2048)

	s.Advance(simtime.Second)
	if d.Stats().AdviseCalls != 0 {
		t.Fatal("daemon must not advise below adv_thr")
	}
	if f.CachedPages() != 2048 {
		t.Fatal("file cache must be untouched below adv_thr")
	}
	if d.Stats().Scans == 0 {
		t.Fatal("daemon must scan periodically")
	}
}

func TestDaemonReleasesBatchFileCacheUnderPressure(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	batch := k.CreateProcess("batch")
	reg.AddBatch(batch.PID)
	small := k.CreateFile("small.dat", 1024, batch.PID)
	big := k.CreateFile("big.dat", 8192, batch.PID)
	k.ReadFile(s.Now(), small, 1024)
	k.ReadFile(s.Now(), big, 8192)

	// Push node usage over adv_thr with anon memory.
	hog := k.CreateProcess("hog")
	target := int64(float64(k.TotalPages())*0.95) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(s.Now(), hog, target)
	k.FaultIn(s.Now(), r, target)

	s.Advance(simtime.Second)
	st := d.Stats()
	if st.AdviseCalls == 0 || st.PagesReleased == 0 {
		t.Fatalf("daemon must advise under pressure: %+v", st)
	}
	// Largest file first: big.dat must be dropped before small.dat is
	// considered; with the target met after big.dat, small.dat survives.
	if big.CachedPages() != 0 {
		t.Fatal("largest file must be released first")
	}
	if small.CachedPages() == 0 {
		t.Fatal("small file released although target was already met")
	}
	k.CheckInvariants()
}

func TestDaemonIgnoresNonBatchFiles(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	svc := k.CreateProcess("redis") // not registered as batch
	f := k.CreateFile("service.rdb", 4096, svc.PID)
	k.ReadFile(s.Now(), f, 4096)

	hog := k.CreateProcess("hog")
	target := int64(float64(k.TotalPages())*0.95) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(s.Now(), hog, target)
	k.FaultIn(s.Now(), r, target)

	s.Advance(simtime.Second)
	if f.CachedPages() != 4096 {
		t.Fatal("daemon must never touch non-batch files")
	}
	if d.Stats().PagesReleased != 0 {
		t.Fatal("nothing batch-owned to release")
	}
}

func TestDaemonUtilizationSmall(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()
	s.Advance(10 * simtime.Second)
	util := d.Utilization(s.Now())
	// §5.5 reports ~2.4% CPU for the daemon; idle scanning must be well
	// under that.
	if util > 0.024 {
		t.Fatalf("daemon utilisation %.3f%% too high", util*100)
	}
}

func TestDaemonInvalidConfigPanics(t *testing.T) {
	k, _ := newTestNode(t)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid daemon config must panic")
		}
	}()
	NewDaemon(k, NewRegistry(), Config{Period: 0})
}

// TestDaemonStopPoint pins where a tick stops in Table 1's shape: many
// registered batch PIDs, most of them dead and owning no files, a few
// owning files of different cached sizes, and a non-batch file the daemon
// must skip. The tick advises largest cached first and stops at the first
// file where the remaining batch cache is at or below FileCacheTarget —
// here one page past the boundary, so an off-by-one in the running total
// either advises a fourth file or stops after the second.
func TestDaemonStopPoint(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	for i := 0; i < 40; i++ {
		dead := k.CreateProcess("batch-done")
		reg.AddBatch(dead.PID)
		k.ExitProcess(dead)
	}
	jobs := make([]*kernel.Process, 3)
	for i := range jobs {
		jobs[i] = k.CreateProcess("batch")
		reg.AddBatch(jobs[i].PID)
	}
	target := int64(DefaultConfig().FileCacheTarget * float64(k.TotalPages()))
	half := target / 2
	cached := map[string]int64{}
	add := func(name string, owner *kernel.Process, pages int64) {
		f := k.CreateFile(name, pages+64, owner.PID)
		k.ReadFile(s.Now(), f, pages)
		if f.CachedPages() != pages {
			t.Fatalf("%s cached %d, want %d", name, f.CachedPages(), pages)
		}
		cached[name] = pages
	}
	add("a.in", jobs[0], 2*target)
	add("b.in", jobs[1], target)
	// After a and b, c+d+e leaves exactly target+1 pages: c must go.
	add("c.in", jobs[2], half+1)
	add("d.in", jobs[1], target-half-100)
	add("e.in", jobs[2], 100)
	k.CreateFile("z.in", 500, jobs[0].PID) // never read: nothing to release
	svc := k.CreateProcess("redis")
	add("svc.rdb", svc, 4*target)

	hog := k.CreateProcess("hog")
	pages := int64(float64(k.TotalPages())*0.95) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(s.Now(), hog, pages)
	k.FaultIn(s.Now(), r, pages)
	if k.UsedFraction() < DefaultConfig().AdvThreshold {
		t.Fatalf("setup must cross adv_thr: used %.3f", k.UsedFraction())
	}

	s.Advance(simtime.Second)
	advised := map[string]bool{}
	for name, pages := range cached {
		switch got := k.File(name).CachedPages(); got {
		case 0:
			advised[name] = true
		case pages:
		default:
			t.Fatalf("%s partially released: %d of %d pages left", name, got, pages)
		}
	}
	if len(advised) != 3 || !advised["a.in"] || !advised["b.in"] || !advised["c.in"] {
		t.Fatalf("advised %v, want exactly a.in, b.in, c.in", advised)
	}
	st := d.Stats()
	wantPages := cached["a.in"] + cached["b.in"] + cached["c.in"]
	if st.AdviseCalls != 3 || st.PagesReleased != wantPages {
		t.Fatalf("stats %+v, want 3 advise calls releasing %d pages", st, wantPages)
	}
	k.CheckInvariants()
}

// perPIDBatchFiles is the daemon's former file query, kept as the oracle:
// each registered batch PID's files, concatenated and sorted by cached size
// descending, then name.
func perPIDBatchFiles(k *kernel.Kernel, reg *Registry) []*kernel.File {
	var files []*kernel.File
	for _, pid := range reg.BatchPIDs() {
		files = append(files, k.FilesOwnedBy(pid)...)
	}
	slices.SortFunc(files, func(a, b *kernel.File) int {
		return cmp.Or(cmp.Compare(b.CachedPages(), a.CachedPages()), strings.Compare(a.Name, b.Name))
	})
	return files
}

// TestDaemonOrderMatchesPerPIDOracle checks the single file-table scan
// against the per-PID query through random file churn: dead registered
// PIDs (some still owning files), non-batch owners, and cached sizes drawn
// from a few values so the name tie-break decides the order. It also pins
// that a scan after the first allocates nothing, however many PIDs are
// registered.
func TestDaemonOrderMatchesPerPIDOracle(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()
	rng := rand.New(rand.NewPCG(5, 0))

	var owners []kernel.PID
	for i := 0; i < 300; i++ {
		p := k.CreateProcess("batch")
		reg.AddBatch(p.PID)
		owners = append(owners, p.PID)
		if i%3 != 0 {
			k.ExitProcess(p)
		}
	}
	for i := 0; i < 4; i++ {
		owners = append(owners, k.CreateProcess("svc").PID) // never registered
	}
	for step := 0; step < 400; step++ {
		live := k.Files()
		switch {
		case len(live) > 0 && rng.IntN(4) == 0:
			k.DeleteFile(live[rng.IntN(len(live))])
		case len(live) > 0 && rng.IntN(3) == 0:
			f := live[rng.IntN(len(live))]
			k.ReadFile(s.Now(), f, int64(1+rng.IntN(4))*8)
		default:
			name := fmt.Sprintf("f%03d", rng.IntN(500))
			if k.File(name) == nil {
				f := k.CreateFile(name, 64, owners[rng.IntN(len(owners))])
				k.ReadFile(s.Now(), f, int64(rng.IntN(4))*8)
			}
		}
		got, want := d.batchFilesLargestFirst(), perPIDBatchFiles(k, reg)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: daemon order differs from the per-PID oracle (%d vs %d files)", step, len(got), len(want))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { d.batchFilesLargestFirst() }); allocs != 0 {
		t.Fatalf("scan with %d registered PIDs allocated %.0f times, want 0", len(reg.batch), allocs)
	}
}
