package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/flatmap"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

type req = workload.Request

// probeInputs is what a workload hands the layer probes: its fleet shape,
// its value sizes and its generated request stream.
type probeInputs struct {
	nodes, shards int
	nodeMemory    int64
	valueSizes    []int64
	// stream drains a fresh driver over the workload's request stream,
	// calling visit for each request, and returns the request count.
	stream func(visit func(req)) int64
}

const (
	// minProbe is the least host time a repeated probe measures.
	minProbe = 100 * time.Millisecond
	// maxProbeKeys caps the keys the service and flatmap probes use.
	maxProbeKeys = 200_000
	// maxQueries caps the service probe's queries.
	maxQueries = 50_000
	// churnOps is each allocator churn's operation count.
	churnOps = 100_000
	// churnWindowBytes is the live set at which the churn frees
	// everything it holds.
	churnWindowBytes = 64 << 20
	// table1Files and table1PIDs size the file-ownership probes like a
	// Table 1 cell at QuickScale: the most files alive and batch PIDs
	// registered at any daemon tick of the Hermes cells.
	table1Files = 168
	table1PIDs  = 968
	// daemonTicks is how many monitor ticks the daemon probe advances.
	daemonTicks = 100
)

// Sinks keep the compiler from removing probed calls.
var sinkInt int64

// perOp repeats f, which performs some operations and returns how many,
// until at least minProbe has passed, and returns host ns per operation.
func perOp(f func() int64) float64 {
	var ops int64
	start := time.Now()
	for ops == 0 || time.Since(start) < minProbe {
		ops += f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// maxPairs bounds the untraced/traced pairs of a traced run.
const maxPairs = 10

// traced alternates untraced and traced iterations of the workload until
// the budget is spent (at least one pair), then runs the layer probes on
// the workload's inputs and reports the per-layer metrics. Span metrics
// come from the last traced iteration; trace.overhead_pct compares the
// median traced run_s with the median untraced one, both normalised.
func traced(w workloadDef, seed uint64, budget time.Duration) (result, runInfo, *tracer) {
	c := &checker{w: w}
	res := result{Metrics: map[string]metric{}}
	ref := newSpeedRef()
	var plain, spanned []float64
	var tr *tracer
	var it iteration
	start := time.Now()
	for res.Failed == 0 && len(plain) < maxPairs && (len(plain) == 0 || time.Since(start) < budget) {
		// Odd pairs run the traced iteration first, so an order effect
		// cancels out of the medians.
		var base, withSpans float64
		for _, withTrace := range []bool{len(plain)%2 == 1, len(plain)%2 == 0} {
			var cur iteration
			var err error
			if withTrace {
				tr = newTracer()
				tr.do("workload."+w.name, func() { cur, err = once(w, seed, tr) })
			} else {
				cur, err = once(w, seed, nil)
			}
			norm := ref.normalise(cur)
			res.Attempted++
			if !c.check(cur, err) {
				res.Failed++
				break
			}
			if withTrace {
				it, withSpans = cur, norm
			} else {
				base = norm
			}
		}
		if res.Failed > 0 {
			break
		}
		plain = append(plain, base)
		spanned = append(spanned, withSpans)
	}
	info := runInfo{Iterations: res.Attempted, Fingerprint: c.fingerprint, Served: it.out.served, Model: it.out.model, Errors: c.errors}
	if res.Failed > 0 {
		return res, info, tr
	}
	m := res.Metrics
	sec := func(names ...string) metric {
		var d time.Duration
		for _, n := range names {
			d += tr.total(n)
		}
		return metric{d.Seconds(), "s"}
	}
	m["cluster.setup_s"] = sec("cluster.ParseScenarioSpec", "cluster.NewCluster")
	m["cluster.warmup_s"] = sec("cluster.Advance")
	m["cluster.run_s"] = sec("cluster.Run", "cluster.RunScenario")
	m["metrics.export_jsonl_s"] = sec("metrics.WriteMetricsJSONL")
	for _, g := range paperSpanGroups {
		var names []string
		for _, e := range paperExperiments {
			if e.span == g {
				names = append(names, "experiments."+e.name)
			}
		}
		m["experiments."+g+"_s"] = sec(names...)
	}
	m["trace.overhead_pct"] = metric{(median(spanned)/median(plain) - 1) * 100, "%"}

	tr.do("probes", func() { probeLayers(tr, it.in, it.out.served, m) })
	res.Correct = true
	return res, info, tr
}

// probeLayers times calls into each layer's package, fed with the
// workload's own inputs, and stores the per-layer metrics in m.
func probeLayers(tr *tracer, in probeInputs, served int64, m map[string]metric) {
	var keys []int64
	var arrivals []simtime.Time
	tr.do("probe.workload", func() {
		var n int64
		ns := perOp(func() int64 {
			n = in.stream(func(req) {})
			return n
		})
		m["workload.gen_ns_per_req"] = metric{ns, "ns/req"}
		m["workload.requests"] = metric{float64(n), "count"}
		in.stream(func(r req) {
			if len(keys) < maxProbeKeys {
				keys = append(keys, r.Key)
			}
			arrivals = append(arrivals, r.At)
		})
	})

	names := make([]string, in.nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%02d", i)
	}
	router := hermes.NewShardRouter(names, in.shards, 64)
	tr.do("probe.cluster", func() {
		ns := perOp(func() int64 {
			var s int64
			for _, k := range keys {
				s += int64(router.NodeForShard(router.ShardForKey(k)))
			}
			sinkInt += s
			return int64(len(keys))
		})
		m["cluster.route_ns_per_key"] = metric{ns, "ns/key"}
	})

	// The digest and metrics probes see one synthetic latency per served
	// request (per arrival for the windowed ones), routed by the stream's
	// keys.
	n := served
	if n <= 0 {
		n = int64(len(arrivals))
	}
	lats := make([]time.Duration, n)
	shardOf := make([]int32, n)
	for i := range lats {
		lats[i] = syntheticLatency(uint64(i))
		shardOf[i] = int32(router.ShardForKey(keys[i%len(keys)]))
	}
	tr.do("probe.stats", func() { probeStats(in, router, lats, shardOf, m) })
	tr.do("probe.metrics", func() { probeMetrics(in, router, arrivals, lats, shardOf, m) })
	runtime.GC()
	tr.do("probe.alloc", func() { probeAllocators(in, m) })
	tr.do("probe.services", func() { probeServices(in, keys, m) })
	tr.do("probe.kernel", func() { probeKernel(in, m) })
	tr.do("probe.monitor", func() { probeDaemon(m) })
	tr.do("probe.simtime", func() { probeSimtime(m) })
}

// syntheticLatency is a deterministic latency: 5–205 µs, with one sample
// in a hundred 50× slower, like a reclaim stall.
func syntheticLatency(i uint64) time.Duration {
	h := mix64(i + 1)
	d := time.Duration(5_000 + h%200_000)
	if h>>56 < 3 {
		d *= 50
	}
	return d
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// probeStats times the two digest paths: raw Record into per-shard
// recorders, folded shard→node→cluster with a Summarize at every level,
// and streaming-histogram Record.
func probeStats(in probeInputs, router *hermes.ShardRouter, lats []time.Duration, shardOf []int32, m map[string]metric) {
	ns := perOp(func() int64 {
		shards := make([]*stats.Recorder, in.shards)
		for i := range shards {
			shards[i] = stats.NewRecorder("shard")
		}
		for i, d := range lats {
			shards[shardOf[i]].Record(d)
		}
		nodes := make([]*stats.Recorder, in.nodes)
		for i := range nodes {
			nodes[i] = stats.NewRecorder("node")
		}
		var s int64
		for i, r := range shards {
			s += int64(r.Summarize().Count)
			nodes[router.NodeForShard(i)].Merge(r)
		}
		cluster := stats.NewRecorder("cluster")
		for _, r := range nodes {
			s += int64(r.Summarize().Count)
			cluster.Merge(r)
		}
		sinkInt += s + int64(cluster.Summarize().Count)
		return int64(len(lats))
	})
	m["stats.raw_fold_ns_per_sample"] = metric{ns, "ns/sample"}

	ns = perOp(func() int64 {
		r := stats.NewStreamingRecorder("hist")
		for _, d := range lats {
			r.Record(d)
		}
		sinkInt += int64(r.Summarize().Count)
		return int64(len(lats))
	})
	m["stats.hist_record_ns"] = metric{ns, "ns/sample"}
}

// probeMetrics times the per-window collector and the monitor tracker over
// the stream's arrivals in order, each routed to its serving node, and the
// JSON-lines export of the collected series, in brownout's 100 ms
// windows.
func probeMetrics(in probeInputs, router *hermes.ShardRouter, arrivals []simtime.Time, lats []time.Duration, shardOf []int32, m map[string]metric) {
	period := brownoutMetricsPeriod
	nodeOf := make([]int32, len(arrivals))
	for i := range nodeOf {
		nodeOf[i] = int32(router.NodeForShard(int(shardOf[i%len(shardOf)])))
	}
	start := arrivals[0]
	horizon := arrivals[len(arrivals)-1] + 1
	noCounters := func(int) metrics.Counters { return metrics.Counters{} }
	var series []metrics.Sample
	ns := perOp(func() int64 {
		c := metrics.NewCollector(start, period, in.nodes, noCounters)
		for i, at := range arrivals {
			node := int(nodeOf[i])
			c.Tick(node, at)
			c.Observe(node, lats[i%len(lats)])
		}
		c.Finish(horizon)
		series = c.Series(nil)
		return int64(len(arrivals))
	})
	m["metrics.collect_ns_per_sample"] = metric{ns, "ns/sample"}
	m["metrics.windows"] = metric{float64(len(series)), "count"}
	if _, ok := m["metrics.export_jsonl_s"]; !ok || m["metrics.export_jsonl_s"].Value == 0 {
		// Workloads that export no stream of their own are measured on
		// the probe's series.
		ns = perOp(func() int64 {
			if err := metrics.WriteJSONL(io.Discard, series); err != nil {
				panic(err)
			}
			return 1
		})
		m["metrics.export_jsonl_s"] = metric{ns / 1e9, "s"}
	}

	ns = perOp(func() int64 {
		trackers := make([]*monitor.Tracker, in.nodes)
		for i := range trackers {
			trackers[i] = monitor.NewTracker(start, period, 100*time.Microsecond, 1)
		}
		var breaches int64
		boundary := func(_ simtime.Time, breached bool) {
			if breached {
				breaches++
			}
		}
		for i, at := range arrivals {
			t := trackers[nodeOf[i]]
			t.Roll(at, boundary)
			t.Observe(lats[i%len(lats)])
		}
		sinkInt += breaches
		return int64(len(arrivals))
	})
	m["monitor.tracker_ns_per_sample"] = metric{ns, "ns/sample"}
}

// probeNode boots a node sized like the workload's nodes.
func probeNode(mem int64) *hermes.Node {
	cfg := hermes.DefaultNodeConfig()
	cfg.Kernel.TotalMemory = mem
	cfg.Kernel.SwapBytes = mem
	return hermes.NewNode(cfg)
}

// allocProbes are the four allocators, by metric prefix.
var allocProbes = []struct {
	prefix string
	make   func(*hermes.Node) hermes.Allocator
}{
	{"alloc.glibc", func(n *hermes.Node) hermes.Allocator { return n.NewGlibcAllocator("probe") }},
	{"alloc.jemalloc", func(n *hermes.Node) hermes.Allocator { return n.NewJemallocAllocator("probe") }},
	{"alloc.tcmalloc", func(n *hermes.Node) hermes.Allocator { return n.NewTCMallocAllocator("probe") }},
	{"core.hermes", func(n *hermes.Node) hermes.Allocator { return n.NewHermesAllocator("probe") }},
}

// probeAllocators runs a Malloc+Touch+Free churn at the workload's value
// sizes on a fresh node per allocator, idle and under an anonymous-memory
// pressure generator that leaves less free memory than one churn window.
func probeAllocators(in probeInputs, m map[string]metric) {
	for _, ap := range allocProbes {
		for _, pressured := range []bool{false, true} {
			node := probeNode(in.nodeMemory)
			var p *hermes.Pressure
			if pressured {
				pcfg := hermes.DefaultPressureConfig(hermes.PressureAnon)
				pcfg.FreeBytes = churnWindowBytes / 4
				p = node.StartPressure(pcfg)
			}
			a := ap.make(node)
			host, virt := churn(node, a, in.valueSizes)
			a.Close()
			prefix := ap.prefix + "."
			if p != nil {
				p.Stop()
				prefix += "pressured_"
			}
			m[prefix+"ns_per_op"] = metric{host, "ns/op"}
			m[prefix+"sim_ns_per_op"] = metric{virt, "ns/op"}
		}
	}
}

// churn allocates and first-touches churnOps blocks, cycling through the
// sizes, and frees the whole live set each time it reaches
// churnWindowBytes, advancing the node by every call's virtual latency. It
// returns host and virtual ns per operation (a Malloc+Touch, plus its
// share of the Frees).
func churn(node *hermes.Node, a hermes.Allocator, sizes []int64) (host, virt float64) {
	var live []*hermes.Block
	var liveBytes int64
	var total time.Duration
	start := time.Now()
	for i := 0; i < churnOps; i++ {
		now := node.Now()
		size := sizes[i%len(sizes)]
		b, c := a.Malloc(now, size)
		c += a.Touch(now.Add(c), b)
		total += c
		node.Advance(c)
		live = append(live, b)
		if liveBytes += size; liveBytes >= churnWindowBytes {
			for _, b := range live {
				c := a.Free(node.Now(), b)
				total += c
				node.Advance(c)
			}
			live, liveBytes = live[:0], 0
		}
	}
	host = float64(time.Since(start).Nanoseconds()) / churnOps
	return host, float64(total.Nanoseconds()) / churnOps
}

// probeServices runs Service.Query over the workload's keys at its first
// value size on one node per service, and flatmap Put/Get/Delete over the
// same keys.
func probeServices(in probeInputs, keys []int64, m map[string]metric) {
	qkeys := keys[:min(len(keys), maxQueries)]
	for _, svc := range []string{"redis", "rocksdb"} {
		node := probeNode(in.nodeMemory)
		a := node.NewGlibcAllocator("probe")
		var s hermes.Service
		if svc == "redis" {
			s = node.NewRedis(a)
		} else {
			s = node.NewRocksdb(a, "probe")
		}
		start := time.Now()
		for _, k := range qkeys {
			total, _, _ := s.Query(k, in.valueSizes[0])
			node.Advance(total)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(len(qkeys))
		s.Close()
		a.Close()
		m["services."+svc+".ns_per_query"] = metric{ns, "ns/query"}
	}

	ns := perOp(func() int64 {
		fm := flatmap.New[int64](0)
		for _, k := range keys {
			fm.Put(k, k)
		}
		var s int64
		for _, k := range keys {
			v, _ := fm.Get(k)
			s += v
		}
		for _, k := range keys {
			fm.Delete(k)
		}
		sinkInt += s
		return 3 * int64(len(keys))
	})
	m["flatmap.ns_per_op"] = metric{ns, "ns/op"}
}

// probeKernel times first-touch faults on an idle node and on a node whose
// memory is full (so every fault reclaims), and FilesOwnedBy over a
// Table-1-sized file table.
func probeKernel(in probeInputs, m map[string]metric) {
	chunk := max(1, in.valueSizes[0]/4096)

	node := probeNode(in.nodeMemory)
	k := node.Kernel()
	pages := k.TotalPages() / 4 / chunk * chunk
	m["kernel.fault_ns_per_page"] = metric{faultPages(node, pages, chunk), "ns/page"}

	node = probeNode(in.nodeMemory)
	k = node.Kernel()
	fill := k.FreePages()
	r, _ := k.Mmap(node.Now(), k.CreateProcess("filler"), fill)
	for done := int64(0); done < fill; done += 4096 {
		node.Advance(k.FaultIn(node.Now(), r, min(4096, fill-done)))
	}
	pages = k.TotalPages() / 16 / chunk * chunk
	m["kernel.reclaim_ns_per_page"] = metric{faultPages(node, pages, chunk), "ns/page"}

	k = probeNode(in.nodeMemory).Kernel()
	pids := table1Registry(k)
	ns := perOp(func() int64 {
		var s int64
		for _, pid := range pids {
			s += int64(len(k.FilesOwnedBy(pid)))
		}
		sinkInt += s
		return int64(len(pids))
	})
	m["kernel.files_owned_by_us"] = metric{ns / 1e3, "us"}
	m["kernel.files_owned_by.files"] = metric{table1Files, "count"}
	m["kernel.files_owned_by.pids"] = metric{table1PIDs, "count"}
}

// faultPages maps pages in chunk-page first touches and returns host ns
// per page.
func faultPages(node *hermes.Node, pages, chunk int64) float64 {
	k := node.Kernel()
	r, _ := k.Mmap(node.Now(), k.CreateProcess("probe"), pages)
	start := time.Now()
	for done := int64(0); done < pages; done += chunk {
		node.Advance(k.FaultIn(node.Now(), r, chunk))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(pages)
}

// table1Registry creates table1Files files owned by table1PIDs batch PIDs,
// spread evenly, and returns the PIDs.
func table1Registry(k *kernel.Kernel) []kernel.PID {
	pids := make([]kernel.PID, table1PIDs)
	for i := range pids {
		pids[i] = kernel.PID(10_000 + i)
	}
	for i := 0; i < table1Files; i++ {
		k.CreateFile(fmt.Sprintf("batch-input-%03d", i), 256, pids[i*table1PIDs/table1Files])
	}
	return pids
}

// probeDaemon advances a monitor daemon over daemonTicks ticks on a
// QuickScale node held above the daemon's advise threshold, with a
// Table-1-sized batch registry: every tick scans every registered PID's
// files, as in a Table 1 Hermes cell.
func probeDaemon(m map[string]metric) {
	node := probeNode(hermes.QuickScale().NodeMemory)
	k := node.Kernel()
	reg := node.NewRegistry()
	for _, pid := range table1Registry(k) {
		reg.AddBatch(pid)
	}
	cfg := hermes.DefaultDaemonConfig()
	fill := int64(float64(k.TotalPages())*(cfg.AdvThreshold+0.02)) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(node.Now(), k.CreateProcess("resident"), fill)
	node.Advance(k.FaultIn(node.Now(), r, fill))
	d := node.StartDaemon(reg, cfg)
	scans := d.Stats().Scans
	start := time.Now()
	node.Advance(daemonTicks * cfg.Period)
	elapsed := time.Since(start)
	scans = d.Stats().Scans - scans
	d.Stop()
	if scans <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: daemon probe: no ticks fired")
		scans = 1
	}
	m["monitor.daemon_tick_us"] = metric{float64(elapsed.Microseconds()) / float64(scans), "us"}
}

// probeSimtime times the scheduler firing 64 periodic tasks with periods
// of 1–64 ms over ten virtual seconds.
func probeSimtime(m map[string]metric) {
	ns := perOp(func() int64 {
		s := simtime.NewScheduler()
		tasks := make([]*simtime.PeriodicTask, 64)
		for i := range tasks {
			tasks[i] = simtime.NewPeriodicTask(s, time.Duration(i+1)*time.Millisecond,
				func(simtime.Time) simtime.Duration { return time.Microsecond })
		}
		fired := s.Advance(10 * time.Second)
		for _, t := range tasks {
			t.Stop()
		}
		return int64(fired)
	})
	m["simtime.ns_per_event"] = metric{ns, "ns/event"}
}
