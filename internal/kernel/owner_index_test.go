package kernel

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// filesOwnedByScan is the full-table scan the owner index replaced: every
// live file tagged with pid, sorted by (size desc, name). It is the oracle
// FilesOwnedBy must match.
func filesOwnedByScan(k *Kernel, pid PID) []*File {
	var out []*File
	for _, f := range k.files {
		if f.owner == pid {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].sizePages != out[j].sizePages {
			return out[i].sizePages > out[j].sizePages
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func sameFiles(a, b []*File) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fileNames(fs []*File) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// TestFilesOwnedByMatchesFullScan drives a seeded random mix of
// CreateFile, DeleteFile and WriteFile(extend) over several owners and,
// after every step, checks FilesOwnedBy against the full-scan oracle for
// every owner — including one that never owns a file. Sizes come from a
// small set so the name tie-break is exercised, deleted names are reused
// under other owners, and the kernel's invariants (which cross-check the
// index) run after each step.
func TestFilesOwnedByMatchesFullScan(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2024} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			k, s := newTestKernel(t, smallConfig())
			rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
			var owners []PID
			for i := 0; i < 5; i++ {
				owners = append(owners, k.CreateProcess("batch").PID)
			}
			queried := append(owners, PID(1<<20)) // owns nothing, ever
			var live []*File
			var freed []string
			seq := 0
			for step := 0; step < 1500; step++ {
				switch op := rng.IntN(10); {
				case op < 4 || len(live) == 0:
					name := fmt.Sprintf("f%d", seq)
					if len(freed) > 0 && rng.IntN(3) == 0 {
						name, freed = freed[len(freed)-1], freed[:len(freed)-1]
					} else {
						seq++
					}
					owner := owners[rng.IntN(len(owners))]
					live = append(live, k.CreateFile(name, 16*rng.Int64N(6), owner))
				case op < 7:
					i := rng.IntN(len(live))
					f := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					k.DeleteFile(f)
					freed = append(freed, f.Name)
				default:
					f := live[rng.IntN(len(live))]
					k.WriteFile(s.Now(), f, 1+rng.Int64N(32), true)
				}
				k.CheckInvariants()
				for _, pid := range queried {
					got, want := k.FilesOwnedBy(pid), filesOwnedByScan(k, pid)
					if !sameFiles(got, want) {
						t.Fatalf("step %d pid %d: FilesOwnedBy = %v, full scan = %v",
							step, pid, fileNames(got), fileNames(want))
					}
				}
			}
		})
	}
}

// TestFilesOwnedByReturnsCopy checks that the caller owns the returned
// slice: overwriting, reordering or appending to it leaves the index alone.
func TestFilesOwnedByReturnsCopy(t *testing.T) {
	k, _ := newTestKernel(t, smallConfig())
	p := k.CreateProcess("batch")
	for i, size := range []int64{30, 10, 20} {
		k.CreateFile(fmt.Sprintf("in%d", i), size, p.PID)
	}
	want := filesOwnedByScan(k, p.PID)
	got := k.FilesOwnedBy(p.PID)
	got[0], got[2] = got[2], nil
	_ = append(got[:1], k.CreateFile("other", 5, k.CreateProcess("x").PID))
	if again := k.FilesOwnedBy(p.PID); !sameFiles(again, want) {
		t.Fatalf("index changed through the returned slice: %v, want %v", fileNames(again), fileNames(want))
	}
	k.CheckInvariants()
}

// TestCheckInvariantsCatchesOwnerIndexDrift corrupts the owner index in
// each way the invariant names and expects CheckInvariants to panic.
func TestCheckInvariantsCatchesOwnerIndexDrift(t *testing.T) {
	corruptions := map[string]func(k *Kernel, a, b *File){
		"duplicate entry": func(k *Kernel, a, _ *File) {
			k.byOwner[a.owner] = append(k.byOwner[a.owner], a)
		},
		"filed under another owner": func(k *Kernel, a, b *File) {
			k.byOwner[b.owner] = append(k.byOwner[b.owner], a)
			k.unindexOwner(a)
		},
		"live file missing": func(k *Kernel, a, _ *File) {
			k.unindexOwner(a)
		},
		"deleted file kept": func(k *Kernel, a, _ *File) {
			k.DeleteFile(a)
			k.byOwner[a.owner] = append(k.byOwner[a.owner], a)
		},
		"empty list kept": func(k *Kernel, _, _ *File) {
			k.byOwner[PID(1<<20)] = []*File{}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			k, _ := newTestKernel(t, smallConfig())
			p, q := k.CreateProcess("p"), k.CreateProcess("q")
			a := k.CreateFile("a", 10, p.PID)
			b := k.CreateFile("b", 10, q.PID)
			k.CreateFile("c", 10, p.PID)
			k.CheckInvariants()
			corrupt(k, a, b)
			defer func() {
				if recover() == nil {
					t.Fatal("CheckInvariants accepted a corrupted owner index")
				}
			}()
			k.CheckInvariants()
		})
	}
}
