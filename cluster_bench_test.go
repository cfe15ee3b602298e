// Cluster engine benchmarks: the perf trajectory of the simulation hot
// path, tracked from PR 2 on. Each iteration boots a fresh fleet and
// drives the default open-loop workload end-to-end, so ns/op measures the
// whole engine (generation, routing, service models, stats digestion).
//
// CI runs these with -benchtime=1x as a smoke test; locally,
// `go test -bench=BenchmarkCluster -benchmem` gives the comparison, and
// `hermes-cluster -bench BENCH_cluster.json` captures the committed
// trajectory at the full 1M-request scale.
package hermes_test

import (
	"os"
	"testing"
	"time"

	hermes "github.com/hermes-sim/hermes"
)

const benchClusterRequests = 100_000

func benchClusterConfig(sequential bool, mode hermes.StatsMode) hermes.ClusterConfig {
	cfg := hermes.DefaultClusterConfig()
	cfg.Sequential = sequential
	cfg.Stats = mode
	return cfg
}

func runClusterBench(b *testing.B, sequential bool, mode hermes.StatsMode) {
	load := hermes.DefaultLoadConfig()
	load.Requests = benchClusterRequests
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := hermes.NewCluster(benchClusterConfig(sequential, mode))
		rep := c.Run(load)
		c.Close()
		if rep.Requests != load.Requests {
			b.Fatalf("served %d requests, want %d", rep.Requests, load.Requests)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Cluster.P99.Nanoseconds()), "p99-ns")
		}
	}
}

// BenchmarkClusterSequentialRaw is the seed engine shape: one goroutine in
// global arrival order, every sample kept raw. Since the scenario API
// redesign this path runs through Cluster.Run's single-phase adapter, so
// the number also guards the scenario layer's overhead on flat loads.
func BenchmarkClusterSequentialRaw(b *testing.B) {
	runClusterBench(b, true, hermes.StatsRaw)
}

// BenchmarkClusterParallelRaw isolates the parallel engine's contribution:
// per-node chunked execution, still exact raw digests.
func BenchmarkClusterParallelRaw(b *testing.B) {
	runClusterBench(b, false, hermes.StatsRaw)
}

// BenchmarkClusterParallelHistogram is the overhauled default: per-node
// chunked execution with bounded-memory streaming histograms.
func BenchmarkClusterParallelHistogram(b *testing.B) {
	runClusterBench(b, false, hermes.StatsHistogram)
}

// BenchmarkClusterScenarioPhased drives the full scenario machinery — three
// phases, two traffic classes, rate shaping and a squeeze/release timeline —
// through the parallel engine with streaming histograms: the fleet-scale
// scenario path end to end.
func BenchmarkClusterScenarioPhased(b *testing.B) {
	classes := []hermes.TrafficClass{
		{Name: "point", Rate: 40_000, Keys: 100_000, ZipfS: 1.1, ReadFraction: 0.5, ValueBytes: 1024},
		{Name: "bulk", Rate: 10_000, Keys: 10_000, ReadFraction: 0.2, ValueBytes: 8192},
	}
	scn := hermes.Scenario{
		Name: "bench",
		Seed: 1,
		Phases: []hermes.ScenarioPhase{
			{Name: "warm", Duration: 600 * hermes.Duration(time.Millisecond), Classes: classes},
			{
				Name: "ramp", Duration: 600 * hermes.Duration(time.Millisecond),
				Shape:   hermes.RateShape{Kind: hermes.ShapeRamp, From: 1, To: 3},
				Classes: classes,
			},
			{Name: "drain", Requests: benchClusterRequests / 4, Classes: classes[:1]},
		},
		Events: []hermes.ScenarioEvent{
			{At: 500 * hermes.Duration(time.Millisecond), Node: -1, Kind: hermes.EventSqueezeStart, Bytes: 256 << 20},
			{At: 1100 * hermes.Duration(time.Millisecond), Node: -1, Kind: hermes.EventSqueezeStop},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := hermes.NewCluster(benchClusterConfig(false, hermes.StatsHistogram))
		rep, err := c.RunScenario(scn)
		c.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Requests == 0 || len(rep.Phases) != 3 {
			b.Fatalf("scenario bench served %d requests over %d phases", rep.Requests, len(rep.Phases))
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Cluster.P99.Nanoseconds()), "p99-ns")
		}
	}
}

// BenchmarkClusterScenarioBrownoutRaw runs the committed brownout preset at
// a tenth of its load with exact raw digests: the resilience expander
// (retries, hedges, its pending-attempt heap) and raw-digest finalization
// (leaf sorts and sorted merges), which the histogram bench above skips.
func BenchmarkClusterScenarioBrownoutRaw(b *testing.B) {
	data, err := os.ReadFile("examples/scenarios/brownout.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := hermes.ParseScenarioSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Overrides.Apply(hermes.DefaultClusterConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg.Stats = hermes.StatsRaw
	scn := spec.Scenario.Scaled(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := hermes.NewCluster(cfg)
		rep, err := c.RunScenario(scn)
		c.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Requests == 0 || rep.Retries == 0 || rep.Hedges == 0 {
			b.Fatalf("brownout bench served %d requests with %d retries and %d hedges",
				rep.Requests, rep.Retries, rep.Hedges)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Cluster.P99.Nanoseconds()), "p99-ns")
		}
	}
}
