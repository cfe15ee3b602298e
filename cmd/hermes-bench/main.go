// hermes-bench regenerates the paper's tables and figures, and benchmarks
// the single-node request hot path. Each experiment prints the rows/series
// the paper reports (see DESIGN.md §3 for the index and EXPERIMENTS.md for
// paper-vs-measured).
//
// Usage:
//
//	hermes-bench [-scale quick|full] [-seed N] [-run fig3,fig7,...]
//	             [-json] [-cpuprofile f] [-memprofile f]
//	hermes-bench -bench-node BENCH_node.json [-node-requests 1000000]
//	             [-node-allocators glibc,jemalloc,tcmalloc,hermes]
//	             [-node-baseline baseline.json]
//	hermes-bench -bench-workload BENCH_workload.json [-workload-draws N]
//	             [-workload-reps 3]
//	hermes-bench -bench-scaling BENCH_scaling.json [-scaling-cores 1,2,4,8]
//	             [-scaling-fleets 8,64] [-scaling-requests 1000000]
//	             [-scaling-reps 3] [-scaling-min-speedup 0]
//
// With no -run flag every experiment runs in paper order. -json emits
// machine-readable experiment reports instead of tables; -cpuprofile and
// -memprofile write pprof profiles (parity with hermes-cluster), so
// node-level profiles are one command away.
//
// -bench-node drives the single-node hot path end to end (one node, one
// service shard, the default open-loop load) for every requested allocator
// and writes wall clock, throughput and allocator-churn metrics
// (allocs/op via runtime.MemStats) to the given JSON file. -node-baseline
// embeds a previous -bench-node output as the baseline and computes
// speedups — the committed BENCH_node.json tracks the hot-path trajectory
// this way (see EXPERIMENTS.md).
//
// -bench-workload benchmarks workload generation alone — the LoadDriver
// loop, the Zipf+exponential draw pair and the log-normal jitter
// multiplier — on both the legacy (stdlib-algorithm) and randgen
// generators, reporting median-of-reps walls and speedups; the committed
// BENCH_workload.json is its output (see EXPERIMENTS.md).
//
// -bench-scaling measures the parallel cluster engine's multi-core
// scaling curve (see scalingbench.go); the committed BENCH_scaling.json
// is its output. Bench modes pin GOMAXPROCS to 1 by default (override
// with -gomaxprocs) so committed numbers are single-core
// apples-to-apples; -bench-scaling sets the pin per measured point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full (paper-sized)")
	seed := flag.Uint64("seed", 1, "determinism seed")
	runFlag := flag.String("run", "", "comma-separated experiments (default: all): fig2,fig3,fig6,fig7,fig8,fig9,fig10,fig15,fig16,table1,overhead,mlock")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON reports instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchNode := flag.String("bench-node", "", "benchmark the single-node hot path per allocator and write the JSON trajectory to this file")
	nodeRequests := flag.Int64("node-requests", 1_000_000, "requests per allocator for -bench-node")
	nodeAllocators := flag.String("node-allocators", "glibc,jemalloc,tcmalloc,hermes", "comma-separated allocator kinds for -bench-node")
	nodeService := flag.String("node-service", "redis", "service kind for -bench-node: redis or rocksdb")
	nodeBaseline := flag.String("node-baseline", "", "embed a previous -bench-node output as the baseline and compute speedups")
	benchWorkload := flag.String("bench-workload", "", "benchmark the workload generators (legacy vs randgen) and write the JSON trajectory to this file")
	workloadDraws := flag.Int64("workload-draws", 20_000_000, "draws per generator measurement for -bench-workload")
	workloadReps := flag.Int("workload-reps", 3, "repetitions per measurement for -bench-workload (median reported)")
	benchScaling := flag.String("bench-scaling", "", "measure the parallel engine's multi-core scaling curve and write the JSON trajectory to this file")
	scalingCores := flag.String("scaling-cores", "1,2,4,8", "comma-separated GOMAXPROCS points for -bench-scaling")
	scalingFleets := flag.String("scaling-fleets", "8,64", "comma-separated node counts for -bench-scaling")
	scalingRequests := flag.Int64("scaling-requests", 1_000_000, "requests per measurement for -bench-scaling")
	scalingReps := flag.Int("scaling-reps", 3, "repetitions per point for -bench-scaling (median reported)")
	scalingMinSpeedup := flag.Float64("scaling-min-speedup", 0, "fail unless every fleet's best multi-core speedup reaches this factor (0 = report only)")
	gomaxprocs := flag.Int("gomaxprocs", 0, "pin GOMAXPROCS (0 = pin 1 in bench modes, runtime default otherwise; -bench-scaling sets it per point)")
	flag.Parse()

	// Bench modes default to a single-core pin so committed BENCH numbers
	// are comparable across hosts; -bench-scaling overrides the pin per
	// measured point. Ordinary experiment runs keep the runtime default.
	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	} else if *benchNode != "" || *benchWorkload != "" {
		runtime.GOMAXPROCS(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hermes-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hermes-bench:", err)
			}
		}()
	}

	if *benchScaling != "" {
		return runScalingBench(scalingBenchConfig{
			path:       *benchScaling,
			cores:      *scalingCores,
			fleets:     *scalingFleets,
			requests:   *scalingRequests,
			reps:       *scalingReps,
			minSpeedup: *scalingMinSpeedup,
			seed:       *seed,
		})
	}

	if *benchWorkload != "" {
		return runWorkloadBench(workloadBenchConfig{
			path:  *benchWorkload,
			draws: *workloadDraws,
			reps:  *workloadReps,
			seed:  *seed,
		})
	}

	if *benchNode != "" {
		return runNodeBench(nodeBenchConfig{
			path:       *benchNode,
			requests:   *nodeRequests,
			allocators: *nodeAllocators,
			service:    *nodeService,
			seed:       *seed,
			baseline:   *nodeBaseline,
		})
	}

	var scale hermes.Scale
	switch *scaleFlag {
	case "quick":
		scale = hermes.QuickScale()
	case "full":
		scale = hermes.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	type experiment struct {
		name string
		run  func() string
	}
	all := []experiment{
		{"fig2", func() string { return hermes.Fig2(scale, *seed).Render() }},
		{"fig3", func() string { return hermes.Fig3(scale, *seed).Render() }},
		{"fig6", func() string { return hermes.Fig6Ablation(scale, *seed).Render() }},
		{"fig7", func() string { return hermes.Fig7(scale, *seed).Render() }},
		{"fig8", func() string { return hermes.Fig8(scale, *seed).Render() }},
		{"fig9", func() string {
			f := hermes.Fig9(scale, *seed)
			return f.RenderLatency("Figure 9") + "\n" + f.RenderTail("Figure 11") + "\n" + f.RenderViolation("Figure 13")
		}},
		{"fig10", func() string {
			f := hermes.Fig10(scale, *seed)
			return f.RenderLatency("Figure 10") + "\n" + f.RenderTail("Figure 12") + "\n" + f.RenderViolation("Figure 14")
		}},
		{"fig15", func() string { return hermes.Fig15(scale, *seed).Render() }},
		{"fig16", func() string { return hermes.Fig16(scale, *seed).Render() }},
		{"table1", func() string { return hermes.Table1(scale, *seed).Render() }},
		{"overhead", func() string { return hermes.Overhead(scale, *seed).Render() }},
		{"mlock", func() string { return hermes.MlockAblation(scale, *seed).Render() }},
	}

	selected := map[string]bool{}
	if *runFlag != "" {
		for _, name := range strings.Split(*runFlag, ",") {
			selected[strings.TrimSpace(name)] = true
		}
		for name := range selected {
			if !slices.ContainsFunc(all, func(e experiment) bool { return e.name == name }) {
				return fmt.Errorf("unknown experiment %q", name)
			}
		}
	}

	// jsonExperiment is one experiment's machine-readable record.
	type jsonExperiment struct {
		Name   string  `json:"name"`
		WallMS float64 `json:"wall_ms"`
		Output string  `json:"output"`
	}
	var jsonReports []jsonExperiment

	if !*jsonOut {
		fmt.Printf("hermes-bench scale=%s seed=%d\n\n", scale.Name, *seed)
	}
	for _, e := range all {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		start := time.Now()
		out := e.run()
		wall := time.Since(start)
		if *jsonOut {
			jsonReports = append(jsonReports, jsonExperiment{Name: e.name, WallMS: ms(wall), Output: out})
			continue
		}
		fmt.Printf("=== %s (wall %v) ===\n%s\n", e.name, wall.Round(time.Millisecond), out)
	}
	if *jsonOut {
		return writeJSON(os.Stdout, struct {
			Scale       string           `json:"scale"`
			Seed        uint64           `json:"seed"`
			Experiments []jsonExperiment `json:"experiments"`
		}{scale.Name, *seed, jsonReports})
	}
	return nil
}

// nodeBenchConfig carries the -bench-node invocation.
type nodeBenchConfig struct {
	path       string
	requests   int64
	allocators string
	service    string
	seed       uint64
	baseline   string
}

// nodeEntry is one allocator's measured single-node hot path.
type nodeEntry struct {
	Allocator   string  `json:"allocator"`
	WallMS      float64 `json:"wall_ms"`
	ReqsPerSec  float64 `json:"reqs_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	NumGC       uint32  `json:"num_gc"`
	MeanNS      int64   `json:"mean_ns"`
	P99NS       int64   `json:"p99_ns"`
	Requests    int64   `json:"requests"`
}

// nodeComparison relates one allocator's entry to the baseline run.
type nodeComparison struct {
	Allocator       string  `json:"allocator"`
	Speedup         float64 `json:"speedup"`          // baseline wall / new wall
	AllocsReduction float64 `json:"allocs_reduction"` // baseline allocs/op / new allocs/op
}

// nodeBenchFile is the -bench-node JSON document. Baseline embeds a
// previous run of the same harness (e.g. captured on the pre-optimisation
// tree) so the committed file carries its own before/after evidence.
type nodeBenchFile struct {
	Generated  string           `json:"generated"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Service    string           `json:"service"`
	Requests   int64            `json:"requests"`
	Seed       uint64           `json:"seed"`
	Entries    []nodeEntry      `json:"entries"`
	Baseline   *nodeBenchFile   `json:"baseline,omitempty"`
	Comparison []nodeComparison `json:"comparison,omitempty"`
}

// runNodeBench drives the single-node hot path — one node, one service
// shard, the default open-loop load — once per allocator, and measures the
// wall clock and the Go allocator churn of the whole run.
func runNodeBench(cfg nodeBenchConfig) error {
	kinds := strings.Split(cfg.allocators, ",")
	out := nodeBenchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Service:    cfg.service,
		Requests:   cfg.requests,
		Seed:       cfg.seed,
	}

	for _, name := range kinds {
		kind := hermes.AllocatorKind(strings.TrimSpace(name))
		ccfg := hermes.DefaultClusterConfig()
		ccfg.Nodes = 1
		ccfg.Shards = 1
		ccfg.Allocator = kind
		ccfg.ServiceKind = hermes.ServiceKind(cfg.service)
		ccfg.Seed = cfg.seed
		// Histogram digests keep recorder memory out of the measurement:
		// what remains is the per-request node path itself.
		ccfg.Stats = hermes.StatsHistogram
		if err := ccfg.Validate(); err != nil {
			return err
		}
		load := hermes.DefaultLoadConfig()
		load.Requests = cfg.requests
		load.Seed = cfg.seed

		fmt.Printf("bench-node %s: %d requests on 1 node...\n", kind, cfg.requests)
		c := hermes.NewCluster(ccfg)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rep := c.Run(load)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		c.Close()
		if rep.Requests != cfg.requests {
			return fmt.Errorf("bench-node %s served %d requests, want %d", kind, rep.Requests, cfg.requests)
		}
		entry := nodeEntry{
			Allocator:   string(kind),
			WallMS:      ms(wall),
			ReqsPerSec:  float64(cfg.requests) / wall.Seconds(),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(cfg.requests),
			BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.requests),
			NumGC:       after.NumGC - before.NumGC,
			MeanNS:      rep.Cluster.Mean.Nanoseconds(),
			P99NS:       rep.Cluster.P99.Nanoseconds(),
			Requests:    rep.Requests,
		}
		fmt.Printf("  %8.1f ms  %10.0f req/s  %6.2f allocs/op  %7.1f B/op  %d GCs\n",
			entry.WallMS, entry.ReqsPerSec, entry.AllocsPerOp, entry.BytesPerOp, entry.NumGC)
		out.Entries = append(out.Entries, entry)
	}

	if cfg.baseline != "" {
		data, err := os.ReadFile(cfg.baseline)
		if err != nil {
			return err
		}
		base := &nodeBenchFile{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", cfg.baseline, err)
		}
		base.Baseline, base.Comparison = nil, nil // no nesting
		out.Baseline = base
		for _, e := range out.Entries {
			for _, b := range base.Entries {
				if b.Allocator != e.Allocator {
					continue
				}
				cmp := nodeComparison{Allocator: e.Allocator}
				if e.WallMS > 0 {
					cmp.Speedup = b.WallMS / e.WallMS
				}
				if e.AllocsPerOp > 0 {
					cmp.AllocsReduction = b.AllocsPerOp / e.AllocsPerOp
				}
				fmt.Printf("  %s vs baseline: %.2fx faster, %.1fx fewer allocs/op\n",
					e.Allocator, cmp.Speedup, cmp.AllocsReduction)
				out.Comparison = append(out.Comparison, cmp)
			}
		}
	}

	f, err := os.Create(cfg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeJSON(f, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// writeJSON delegates to the report-serialization path every CLI shares.
func writeJSON(f *os.File, v any) error { return hermes.WriteReportJSON(f, v) }
