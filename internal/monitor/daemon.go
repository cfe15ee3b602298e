package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config tunes the daemon.
type Config struct {
	// Period is the monitoring interval.
	Period simtime.Duration
	// AdvThreshold is the node memory-usage fraction above which the
	// daemon starts advising file-cache release (adv_thr in §3.3).
	AdvThreshold float64
	// FileCacheTarget is the fraction of total memory the batch file
	// cache is driven below once advising starts.
	FileCacheTarget float64
}

// DefaultConfig returns the settings used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Period:          100 * simtime.Millisecond,
		AdvThreshold:    0.90,
		FileCacheTarget: 0.05,
	}
}

// Validate reports whether the configuration is well-formed, naming the
// offending field so config loaders can surface the message verbatim.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("monitor: Period must be > 0 (got %v)", c.Period)
	}
	if c.AdvThreshold <= 0 || c.AdvThreshold > 1 {
		return fmt.Errorf("monitor: AdvThreshold must be in (0, 1] (got %v)", c.AdvThreshold)
	}
	return nil
}

// Stats counts daemon activity for the overhead experiment (§5.5).
type Stats struct {
	Scans         int64
	AdviseCalls   int64
	PagesReleased int64
}

// Daemon is the memory monitor daemon. One runs per node.
type Daemon struct {
	k        *kernel.Kernel
	cfg      Config
	registry *Registry
	task     *simtime.PeriodicTask
	stats    Stats
	files    []*kernel.File // batchFilesLargestFirst's buffer, reused across ticks
}

// NewDaemon starts the daemon on the node's scheduler. Stop releases it.
func NewDaemon(k *kernel.Kernel, registry *Registry, cfg Config) *Daemon {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Daemon{k: k, cfg: cfg, registry: registry}
	d.task = simtime.NewPeriodicTask(k.Scheduler(), cfg.Period, d.tick)
	return d
}

// Registry returns the daemon's shared registry.
func (d *Daemon) Registry() *Registry { return d.registry }

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() Stats { return d.stats }

// Utilization returns the daemon's virtual-CPU share (overhead reporting).
func (d *Daemon) Utilization(now simtime.Time) float64 { return d.task.Utilization(now) }

// Stop halts the daemon.
func (d *Daemon) Stop() { d.task.Stop() }

// tick is one monitoring pass: when used memory exceeds adv_thr, advise the
// kernel to drop batch jobs' file cache in largest-file-first order until
// the batch file cache is below target or exhausted (§3.3).
func (d *Daemon) tick(now simtime.Time) simtime.Duration {
	d.stats.Scans++
	// The bookkeeping scan itself is cheap but not free; the paper reports
	// ~2.4% CPU for the daemon.
	busy := 50 * simtime.Microsecond
	if d.k.UsedFraction() < d.cfg.AdvThreshold {
		return busy
	}
	files := d.batchFilesLargestFirst()
	// FadviseDontNeed changes only the advised file's cache, so the batch
	// total is summed once and kept exact by subtracting each release.
	var cached int64
	for _, f := range files {
		cached += f.CachedPages()
	}
	targetPages := int64(d.cfg.FileCacheTarget * float64(d.k.TotalPages()))
	at := now.Add(busy)
	for _, f := range files {
		if cached <= targetPages {
			break
		}
		if f.CachedPages() == 0 {
			continue
		}
		released, cost := d.k.FadviseDontNeed(at, f)
		cached -= released
		busy += cost
		at = at.Add(cost)
		d.stats.AdviseCalls++
		d.stats.PagesReleased += released
	}
	return busy
}

// batchFilesLargestFirst collects the registered batch jobs' files sorted
// by cached size descending: releasing the largest file first makes a large
// chunk of memory available at once and minimises advise calls (§3.3). It
// scans the live file table once rather than querying each registered PID,
// most of which are dead jobs with no files left. The returned slice is the
// daemon's buffer and is valid until the next call.
func (d *Daemon) batchFilesLargestFirst() []*kernel.File {
	files := d.k.AppendFiles(d.files[:0])
	files = slices.DeleteFunc(files, func(f *kernel.File) bool { return !d.registry.IsBatch(f.Owner()) })
	slices.SortFunc(files, func(a, b *kernel.File) int {
		return cmp.Or(cmp.Compare(b.CachedPages(), a.CachedPages()), strings.Compare(a.Name, b.Name))
	})
	d.files = files
	return files
}
