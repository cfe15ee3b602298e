package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// reportsEqual compares two Reports field for field, pointing at the first
// difference — DeepEqual alone gives useless failure output.
func reportsEqual(t *testing.T, seq, par Report) {
	t.Helper()
	if seq.Requests != par.Requests || seq.Reads != par.Reads || seq.Writes != par.Writes {
		t.Errorf("request accounting differs: seq %d/%d/%d, par %d/%d/%d",
			seq.Requests, seq.Reads, seq.Writes, par.Requests, par.Reads, par.Writes)
	}
	if seq.Cluster != par.Cluster {
		t.Errorf("cluster digest differs:\nseq %v\npar %v", seq.Cluster, par.Cluster)
	}
	if seq.Wait != par.Wait {
		t.Errorf("wait digest differs:\nseq %v\npar %v", seq.Wait, par.Wait)
	}
	for i := range seq.PerNode {
		if !reflect.DeepEqual(seq.PerNode[i], par.PerNode[i]) {
			t.Errorf("node %d differs:\nseq %+v\npar %+v", i, seq.PerNode[i], par.PerNode[i])
		}
	}
	for i := range seq.PerShard {
		if seq.PerShard[i] != par.PerShard[i] {
			t.Errorf("shard %d differs:\nseq %v\npar %v", i, seq.PerShard[i], par.PerShard[i])
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("reports differ outside the compared fields")
	}
}

// runBoth executes the identical (config, load) pair on two fresh clusters,
// one per engine, and returns both reports.
func runBoth(t *testing.T, cfg Config, load workload.LoadConfig) (seq, par Report) {
	t.Helper()
	cs := New(cfg)
	defer cs.Close()
	seq = cs.RunSequential(load)
	cp := New(cfg)
	defer cp.Close()
	par = cp.RunParallel(load)
	return seq, par
}

func TestParallelMatchesSequentialAcrossAllocatorsAndSeeds(t *testing.T) {
	for _, kind := range AllocatorKinds {
		for _, seed := range []uint64{1, 99} {
			kind, seed := kind, seed
			t.Run(string(kind), func(t *testing.T) {
				cfg := testClusterConfig(kind)
				cfg.Seed = seed
				load := testLoad()
				load.Seed = seed
				seq, par := runBoth(t, cfg, load)
				reportsEqual(t, seq, par)
			})
		}
	}
}

func TestParallelMatchesSequentialHistogramMode(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	cfg.Stats = StatsHistogram
	seq, par := runBoth(t, cfg, testLoad())
	if seq.Stats != StatsHistogram || par.Stats != StatsHistogram {
		t.Fatalf("reports do not echo histogram mode: %q/%q", seq.Stats, par.Stats)
	}
	reportsEqual(t, seq, par)
}

func TestParallelMatchesSequentialUnderPressure(t *testing.T) {
	// Background machinery (pressure generator, kswapd) consumes per-node
	// RNG draws and schedules events; equivalence must survive it.
	cfg := testClusterConfig(AllocHermes)
	p := workload.DefaultPressureConfig(workload.PressureAnon)
	p.FileBytes = 0
	p.FreeBytes = 8 << 20
	cfg.Pressure = &p
	seq, par := runBoth(t, cfg, testLoad())
	reportsEqual(t, seq, par)
}

func TestRunDispatchesOnSequentialFlag(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	cfg.Sequential = true
	c := New(cfg)
	defer c.Close()
	seq := c.Run(testLoad())
	cfg.Sequential = false
	c2 := New(cfg)
	defer c2.Close()
	par := c2.Run(testLoad())
	reportsEqual(t, seq, par)
}

func TestParallelPersistentRecordersAccumulate(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	c := New(cfg)
	defer c.Close()
	load := testLoad()
	load.Requests = 5000
	first := c.RunParallel(load)
	load.Start = c.Nodes()[0].Now()
	second := c.RunParallel(load)
	if first.Requests != 5000 || second.Requests != 5000 {
		t.Fatalf("run reports cover %d/%d requests, want 5000 each", first.Requests, second.Requests)
	}
	var accumulated int
	for id := 0; id < cfg.Shards; id++ {
		accumulated += c.Shard(id).Recorder().Count()
	}
	if accumulated != 10000 {
		t.Fatalf("persistent shard recorders hold %d samples, want 10000", accumulated)
	}
	var nodeAcc int
	for _, n := range c.Nodes() {
		nodeAcc += n.rec.Count()
	}
	if nodeAcc != 10000 {
		t.Fatalf("persistent node recorders hold %d samples, want 10000", nodeAcc)
	}
}

func TestHistogramModeMemoryBounded(t *testing.T) {
	buckets := func(requests int64) int {
		cfg := testClusterConfig(AllocGlibc)
		cfg.Stats = StatsHistogram
		c := New(cfg)
		defer c.Close()
		load := testLoad()
		load.Requests = requests
		c.Run(load)
		total := 0
		for id := 0; id < cfg.Shards; id++ {
			rec := c.Shard(id).Recorder()
			if !rec.Streaming() {
				t.Fatalf("shard %d recorder is not streaming in histogram mode", id)
			}
			if got := rec.Histogram().Buckets(); got > stats.MaxBuckets() {
				t.Fatalf("shard %d grew to %d buckets, ceiling is %d", id, got, stats.MaxBuckets())
			}
			total += rec.Histogram().Buckets()
		}
		return total
	}
	// Digest memory must not scale with the request count: 4× the samples,
	// same bucket footprint (up to the one-off growth to the latency range).
	small, large := buckets(5_000), buckets(20_000)
	if large > small*2 {
		t.Fatalf("bucket footprint grew with samples: %d buckets at 5k vs %d at 20k", small, large)
	}
}

// TestParallelSingleCoreMatchesSequential pins the parallel engine at
// GOMAXPROCS=1, where its per-node goroutines and the generating goroutine
// share one thread and hand chunks over only at channel boundaries. The
// rest of the suite runs at the host's GOMAXPROCS (≥2 in CI), so this test
// — with CI's one-core run of the identity suite — covers that schedule: a
// flat load that fills the hottest node's chunk several times, a load
// smaller than one chunk (only the final partial chunks are served), a
// multi-phase scenario with a live timeline, and a resilience drill with a
// kill and restore. Each must reproduce the sequential report bit for bit.
func TestParallelSingleCoreMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	flat := func(t *testing.T, requests int64) Report {
		t.Helper()
		cfg := testClusterConfig(AllocHermes)
		load := testLoad()
		load.Requests = requests
		cfg.Sequential = true
		cs := New(cfg)
		defer cs.Close()
		seq := cs.Run(load)
		cfg.Sequential = false
		cp := New(cfg)
		defer cp.Close()
		par := cp.Run(load)
		reportsEqual(t, seq, par)
		return par
	}

	t.Run("flat", func(t *testing.T) {
		rep := flat(t, 20_000)
		hottest := 0
		for _, nr := range rep.PerNode {
			hottest = max(hottest, nr.Latency.Count)
		}
		if hottest < 3*scenarioChunkReqs {
			t.Fatalf("hottest node served %d requests: fewer than three %d-request chunks", hottest, scenarioChunkReqs)
		}
	})

	t.Run("under-one-chunk", func(t *testing.T) {
		rep := flat(t, 400)
		if rep.Requests >= scenarioChunkReqs {
			t.Fatalf("load of %d requests fills a %d-request chunk", rep.Requests, scenarioChunkReqs)
		}
	})

	t.Run("scenario", func(t *testing.T) {
		// Multi-phase scenario with a live timeline.
		cfg, scn := eventScenario()
		cfg.Sequential = true
		seq := runScenario(t, cfg, scn)
		cfg.Sequential = false
		par := runScenario(t, cfg, scn)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("single-core parallel scenario diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
		}
	})

	t.Run("resilience-topology", func(t *testing.T) {
		// The brownout drill with a drain kill and a restore of its
		// target: retries, hedges, failover and migration all cross
		// chunk boundaries between nodes.
		cfg := drillConfig(ServiceRedis, AllocGlibc)
		target := primaryHeavyNode(cfg)
		scn := brownoutScenario(target)
		scn.Events = append(scn.Events,
			workload.Event{At: 60 * simtime.Millisecond, Node: target, Kind: workload.EventKillNode, Policy: workload.KillDrain},
			workload.Event{At: 100 * simtime.Millisecond, Node: target, Kind: workload.EventRestoreNode},
		)
		par := runScenario(t, cfg, scn)
		cfg.Sequential = true
		seq := runScenario(t, cfg, scn)
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("single-core resilience+topology run diverged from sequential:\npar: %+v\nseq: %+v", par, seq)
		}
		if par.Failovers == 0 || par.MigratedBytes == 0 || par.Retries == 0 || par.Hedges == 0 {
			t.Errorf("drill did not exercise its paths: failovers=%d migrated=%d retries=%d hedges=%d",
				par.Failovers, par.MigratedBytes, par.Retries, par.Hedges)
		}
	})
}

// TestSingleCoreRunMemoryBounded pins the single-core engine's footprint:
// the requests in flight are held in per-node chunks of fixed capacity,
// never in a whole-run partition, so what Cluster.Run allocates must not
// grow with the request count. Histogram digests keep the recorders
// bounded too (TestHistogramModeMemoryBounded), so 4× the requests may
// allocate only a small constant more.
func TestSingleCoreRunMemoryBounded(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	allocated := func(requests int64) uint64 {
		cfg := testClusterConfig(AllocGlibc)
		cfg.Stats = StatsHistogram
		c := New(cfg)
		defer c.Close()
		load := testLoad()
		load.Requests = requests
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Run(load)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 2 << 20
	small, large := allocated(50_000), allocated(200_000)
	t.Logf("Cluster.Run allocated %d B at 50k requests, %d B at 200k", small, large)
	if large > small+slack {
		t.Fatalf("Cluster.Run allocation grew with the request count: %d B at 50k, %d B at 200k (slack %d B)",
			small, large, slack)
	}
}
