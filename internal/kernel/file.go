package kernel

import "fmt"

// File is a simulated on-disk file whose pages may be cached in the page
// cache. Batch jobs stream input files through the cache (file-cache
// pressure); RocksDB's SSTs live here too. The monitor daemon's proactive
// reclamation targets exactly these pages.
type File struct {
	Name string
	// owner tags the process that created or loads the file; the monitor
	// daemon uses it to find batch-job files (the paper's daemon shells out
	// to lsof for the same information). It never changes after
	// CreateFile, which is what lets the kernel index files by owner.
	owner PID

	// sizePages is the file length.
	sizePages int64
	// cached counts page-cache-resident pages (clean + dirty).
	cached int64
	// dirty counts cached pages that need writeback before they can be
	// dropped.
	dirty int64

	deleted bool

	// lruChain holds the file's per-list span chains (index 0: active file,
	// 1: inactive file) — its resumable cursors into the kernel's LRU
	// arena. Maintained by the lruList operations.
	lruChain [2]ownerChain
}

// Owner returns the PID the file was created for.
func (f *File) Owner() PID { return f.owner }

// SizePages returns the file length in pages.
func (f *File) SizePages() int64 { return f.sizePages }

// CachedPages returns pages resident in the page cache.
func (f *File) CachedPages() int64 { return f.cached }

// DirtyPages returns cached pages awaiting writeback.
func (f *File) DirtyPages() int64 { return f.dirty }

// Deleted reports whether the file has been removed.
func (f *File) Deleted() bool { return f.deleted }

func (f *File) check() {
	if f.sizePages < 0 || f.cached < 0 || f.dirty < 0 ||
		f.cached > f.sizePages || f.dirty > f.cached {
		panic(fmt.Sprintf("kernel: file %q inconsistent: size=%d cached=%d dirty=%d",
			f.Name, f.sizePages, f.cached, f.dirty))
	}
}
