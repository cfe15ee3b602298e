package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/workload"
)

// A workload is one committed input set. Each iteration of a run builds a
// fresh instance, so every iteration pays the same set-up and makes the
// same measured calls.
type workloadDef struct {
	name string
	// seed is the committed seed; -seed overrides it.
	seed uint64
	// holdout is the seed a claimed gain must also hold on (README).
	holdout uint64
	// gomaxprocs is pinned for the whole process.
	gomaxprocs int
	// servesStream marks a workload that serves exactly its driver's
	// stream, so served must equal the drained request count.
	servesStream bool
	// sampled marks a workload whose iteration is too long to normalise
	// by the reference blocks around it; a sampler times reference
	// pieces during its run instead (see speed.go).
	sampled bool
	// newInstance builds an instance for one iteration. It reads inputs
	// (the scenario file) but does no timed work.
	newInstance func(seed uint64) (instance, error)
}

// An instance is one iteration of a workload: setup is everything before
// the measured calls, run makes them. Both record their public calls as
// spans on tr, which may be nil.
type instance interface {
	setup(tr *tracer) error
	run(tr *tracer) (output, error)
	// inputs describes the workload's generated inputs to the layer probes.
	inputs() probeInputs
	close()
}

// output is one iteration's simulated result.
type output struct {
	// canonical is the simulated output with wall clock removed; its hash
	// is the run's fingerprint.
	canonical []byte
	// served is the number of simulated requests served (0 when the
	// workload serves no cluster requests).
	served int64
	// model holds the exact model outputs that are printed, not gated.
	model map[string]float64
}

func (o output) fingerprint() string {
	sum := sha256.Sum256(o.canonical)
	return hex.EncodeToString(sum[:8])
}

var workloads = []workloadDef{
	{name: "colocation", seed: 42, holdout: 43, gomaxprocs: 1, servesStream: true, newInstance: newColocation},
	{name: "brownout", seed: 21, holdout: 22, gomaxprocs: 2, newInstance: newBrownout},
	{name: "paper-quick", seed: 1, holdout: 2, gomaxprocs: 1, sampled: true, newInstance: newPaperQuick},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// ---- colocation -----------------------------------------------------------

const (
	// colocationRequests is the benchmark's load; the self-test runs
	// fewer.
	colocationRequests = 1_000_000
	colocationNodeMem  = int64(4) << 30
	colocationWarmup   = 6 * time.Second // virtual: batch ramp + Hermes reservation
)

// colocationConfig is the examples/cluster fleet on Hermes with the
// monitor daemon: 8 nodes × 32 Redis shards on 4 GB nodes whose batch
// co-tenants target all of node memory.
func colocationConfig(seed uint64, requests int64) (hermes.ClusterConfig, hermes.LoadConfig) {
	cfg := hermes.DefaultClusterConfig()
	cfg.Nodes = 8
	cfg.Shards = 32
	cfg.Allocator = hermes.AllocHermes
	cfg.Kernel.TotalMemory = colocationNodeMem
	cfg.Kernel.SwapBytes = colocationNodeMem
	cfg.Seed = seed
	cfg.Stats = hermes.StatsHistogram
	b := hermes.DefaultBatchConfig()
	b.TargetBytes = colocationNodeMem
	b.InputBytes = colocationNodeMem / 16
	b.WorkDuration = 20 * time.Second
	b.RampTicks = 10
	cfg.Batch = &b
	d := hermes.DefaultDaemonConfig()
	cfg.Daemon = &d

	load := hermes.DefaultLoadConfig()
	load.Requests = requests
	load.RatePerSec = 50_000
	load.Keys = 200_000
	load.ZipfS = 1.1
	load.ReadFraction = 0.5
	load.ValueBytes = 4096
	load.Start = hermes.Time(colocationWarmup)
	load.Seed = seed
	return cfg, load
}

type colocation struct {
	cfg  hermes.ClusterConfig
	load hermes.LoadConfig
	c    *hermes.Cluster
}

func newColocation(seed uint64) (instance, error) {
	return newColocationScaled(seed, colocationRequests)
}

func newColocationScaled(seed uint64, requests int64) (instance, error) {
	cfg, load := colocationConfig(seed, requests)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := load.Validate(); err != nil {
		return nil, err
	}
	return &colocation{cfg: cfg, load: load}, nil
}

func (w *colocation) setup(tr *tracer) error {
	tr.do("cluster.NewCluster", func() { w.c = hermes.NewCluster(w.cfg) })
	tr.do("cluster.Advance", func() { w.c.Advance(colocationWarmup) })
	return nil
}

func (w *colocation) run(tr *tracer) (output, error) {
	var rep hermes.ClusterReport
	tr.do("cluster.Run", func() { rep = w.c.Run(w.load) })
	if err := checkReport(rep); err != nil {
		return output{}, err
	}
	return reportOutput(rep, rep)
}

func (w *colocation) inputs() probeInputs {
	return probeInputs{
		nodes:      w.cfg.Nodes,
		shards:     w.cfg.Shards,
		nodeMemory: w.cfg.Kernel.TotalMemory,
		valueSizes: []int64{w.load.ValueBytes},
		stream:     loadStream(w.load),
	}
}

func (w *colocation) close() {
	if w.c != nil {
		w.c.Close()
	}
}

// ---- brownout -------------------------------------------------------------

const (
	brownoutPath          = "examples/scenarios/brownout.json"
	brownoutMetricsPeriod = 100 * time.Millisecond
)

type brownout struct {
	seed  uint64
	scale float64
	// sequential selects the Config.Sequential oracle (self-test only).
	sequential bool
	cfg        hermes.ClusterConfig
	scn        hermes.Scenario
	c          *hermes.Cluster
}

func newBrownout(seed uint64) (instance, error) {
	return &brownout{seed: seed, scale: 1}, nil
}

// setup reads and parses the committed preset, applies the seed to both
// the cluster and the scenario as hermes-cluster -seed does, and boots the
// fleet with the 100 ms metrics stream on.
func (w *brownout) setup(tr *tracer) error {
	var err error
	tr.do("cluster.ParseScenarioSpec", func() {
		var data []byte
		if data, err = os.ReadFile(brownoutPath); err != nil {
			return
		}
		var spec hermes.ScenarioSpec
		if spec, err = hermes.ParseScenarioSpec(data); err != nil {
			err = fmt.Errorf("parse %s: %w", brownoutPath, err)
			return
		}
		if w.cfg, err = spec.Overrides.Apply(hermes.DefaultClusterConfig()); err != nil {
			return
		}
		w.scn = spec.Scenario
	})
	if err != nil {
		return err
	}
	if w.scale != 1 {
		w.scn = w.scn.Scaled(w.scale)
	}
	w.scn.Seed = w.seed
	w.cfg.Seed = w.seed
	w.cfg.Sequential = w.sequential
	w.cfg.Metrics = &hermes.MetricsConfig{Period: brownoutMetricsPeriod}
	if err := w.cfg.Validate(); err != nil {
		return err
	}
	tr.do("cluster.NewCluster", func() { w.c = hermes.NewCluster(w.cfg) })
	return nil
}

func (w *brownout) run(tr *tracer) (output, error) {
	var rep hermes.ScenarioReport
	var err error
	tr.do("cluster.RunScenario", func() { rep, err = w.c.RunScenario(w.scn) })
	if err != nil {
		return output{}, err
	}
	tr.do("metrics.WriteMetricsJSONL", func() { err = hermes.WriteMetricsJSONL(io.Discard, rep.Metrics) })
	if err != nil {
		return output{}, err
	}
	if err := checkReport(rep.Report); err != nil {
		return output{}, err
	}
	return reportOutput(rep, rep.Report)
}

func (w *brownout) inputs() probeInputs {
	var sizes []int64
	for _, c := range w.scn.Phases[0].Classes {
		sizes = append(sizes, c.ValueBytes)
	}
	scn := w.scn
	return probeInputs{
		nodes:      w.cfg.Nodes,
		shards:     w.cfg.Shards,
		nodeMemory: w.cfg.Kernel.TotalMemory,
		valueSizes: sizes,
		stream: func(visit func(workload.Request)) int64 {
			d := hermes.NewScenarioDriver(scn)
			var n int64
			for {
				r, ok := d.Next()
				if !ok {
					return n
				}
				visit(r.Request)
				n++
			}
		},
	}
}

func (w *brownout) close() {
	if w.c != nil {
		w.c.Close()
	}
}

// ---- paper-quick ----------------------------------------------------------

// paperExperiment is one paper entry point, rendered the way hermes-bench
// renders it. span names the experiments.* layer metric it feeds.
type paperExperiment struct {
	name string
	span string
	run  func(hermes.Scale, uint64) string
}

var paperExperiments = []paperExperiment{
	{"Fig2", "other", func(s hermes.Scale, seed uint64) string { return hermes.Fig2(s, seed).Render() }},
	{"Fig3", "other", func(s hermes.Scale, seed uint64) string { return hermes.Fig3(s, seed).Render() }},
	{"Fig6Ablation", "other", func(s hermes.Scale, seed uint64) string { return hermes.Fig6Ablation(s, seed).Render() }},
	{"Fig7", "fig7", func(s hermes.Scale, seed uint64) string { return hermes.Fig7(s, seed).Render() }},
	{"Fig8", "other", func(s hermes.Scale, seed uint64) string { return hermes.Fig8(s, seed).Render() }},
	{"Fig9", "fig9", func(s hermes.Scale, seed uint64) string {
		f := hermes.Fig9(s, seed)
		return f.RenderLatency("Figure 9") + "\n" + f.RenderTail("Figure 11") + "\n" + f.RenderViolation("Figure 13")
	}},
	{"Fig10", "fig10", func(s hermes.Scale, seed uint64) string {
		f := hermes.Fig10(s, seed)
		return f.RenderLatency("Figure 10") + "\n" + f.RenderTail("Figure 12") + "\n" + f.RenderViolation("Figure 14")
	}},
	{"Fig15", "fig15", func(s hermes.Scale, seed uint64) string { return hermes.Fig15(s, seed).Render() }},
	{"Fig16", "other", func(s hermes.Scale, seed uint64) string { return hermes.Fig16(s, seed).Render() }},
	{"Table1", "table1", nil}, // run separately: its job counts are model outputs
	{"Overhead", "other", func(s hermes.Scale, seed uint64) string { return hermes.Overhead(s, seed).Render() }},
	{"MlockAblation", "other", func(s hermes.Scale, seed uint64) string { return hermes.MlockAblation(s, seed).Render() }},
}

// paperSpanGroups are the experiments.* layer metrics, in output order.
var paperSpanGroups = []string{"table1", "fig10", "fig9", "fig7", "fig15", "other"}

type paperQuick struct {
	seed  uint64
	scale hermes.Scale
}

func newPaperQuick(seed uint64) (instance, error) {
	return &paperQuick{seed: seed, scale: hermes.QuickScale()}, nil
}

// setup boots the three testbed nodes the entry points build for
// themselves — the 128 GB micro-benchmark node and the service and batch
// nodes at QuickScale — and discards them. The entry points have no
// set-up phase of their own, so this is where work moved out of them into
// node boot shows.
func (w *paperQuick) setup(tr *tracer) error {
	tr.do("hermes.NewNode", func() {
		hermes.NewNode(hermes.DefaultNodeConfig())
		for i := 0; i < 2; i++ {
			cfg := hermes.DefaultNodeConfig()
			cfg.Kernel.TotalMemory = w.scale.NodeMemory
			cfg.Kernel.SwapBytes = w.scale.NodeSwap
			hermes.NewNode(cfg)
		}
	})
	return nil
}

func (w *paperQuick) run(tr *tracer) (output, error) {
	var buf bytes.Buffer
	model := map[string]float64{}
	for _, e := range paperExperiments {
		var text string
		tr.do("experiments."+e.name, func() {
			if e.run != nil {
				text = e.run(w.scale, w.seed)
				return
			}
			res := hermes.Table1(w.scale, w.seed)
			text = res.Render()
			for svc, row := range res.Jobs {
				for scn, jobs := range row {
					model[fmt.Sprintf("model.table1.%s.%s", strings.ToLower(string(svc)), strings.ToLower(string(scn)))] = float64(jobs)
				}
			}
		})
		if strings.TrimSpace(text) == "" {
			return output{}, fmt.Errorf("%s rendered no output", e.name)
		}
		fmt.Fprintf(&buf, "=== %s ===\n%s\n", e.name, text)
	}
	return output{canonical: buf.Bytes(), model: model}, nil
}

// inputs gives the probes the service-benchmark stream of the paper
// experiments at QuickScale: ServiceInsertBytes of 1 KB records over as
// many uniform keys, half reads, on one node.
func (w *paperQuick) inputs() probeInputs {
	n := w.scale.ServiceInsertBytes / (1 << 10)
	load := hermes.DefaultLoadConfig()
	load.Requests = n
	load.Keys = n
	load.ZipfS = 0
	load.ReadFraction = 0.5
	load.ValueBytes = 1 << 10
	load.Seed = w.seed
	return probeInputs{
		nodes:      1,
		shards:     1,
		nodeMemory: w.scale.NodeMemory,
		valueSizes: []int64{1 << 10, 200 << 10},
		stream:     loadStream(load),
	}
}

func (w *paperQuick) close() {}

// ---- shared ---------------------------------------------------------------

func loadStream(load hermes.LoadConfig) func(func(workload.Request)) int64 {
	return func(visit func(workload.Request)) int64 {
		d := hermes.NewLoadDriver(load)
		var n int64
		for {
			r, ok := d.Next()
			if !ok {
				return n
			}
			visit(r)
			n++
		}
	}
}

// reportOutput canonicalizes a cluster report (which carries no wall
// clock) and extracts its model outputs.
func reportOutput(v any, rep hermes.ClusterReport) (output, error) {
	var buf bytes.Buffer
	if err := hermes.WriteReportJSON(&buf, v); err != nil {
		return output{}, err
	}
	var reclaims, swapouts int64
	for _, n := range rep.PerNode {
		reclaims += n.Kernel.DirectReclaims
		swapouts += n.Kernel.PagesSwapOut
	}
	return output{
		canonical: buf.Bytes(),
		served:    rep.Requests,
		model: map[string]float64{
			"model.p50_us":          float64(rep.Cluster.P50) / 1e3,
			"model.p99_us":          float64(rep.Cluster.P99) / 1e3,
			"model.slo_compliance":  rep.SLOCompliance,
			"model.shed":            float64(rep.Shed),
			"model.failed":          float64(rep.Failed),
			"model.direct_reclaims": float64(reclaims),
			"model.swapouts":        float64(swapouts),
		},
	}, nil
}

// checkReport verifies the report's internal accounting: the read/write
// split, the cluster digest and the per-node and per-shard digests each
// count every served request once, and the resilience totals are the sums
// of their per-node columns.
func checkReport(rep hermes.ClusterReport) error {
	if rep.Requests <= 0 {
		return fmt.Errorf("no requests served")
	}
	if rep.Reads+rep.Writes != rep.Requests {
		return fmt.Errorf("reads %d + writes %d != served %d", rep.Reads, rep.Writes, rep.Requests)
	}
	if int64(rep.Cluster.Count) != rep.Requests {
		return fmt.Errorf("cluster digest holds %d samples, served %d", rep.Cluster.Count, rep.Requests)
	}
	var nodeCount, shardCount int64
	var retries, errs, hedges, shed, failed int64
	for _, n := range rep.PerNode {
		nodeCount += int64(n.Latency.Count)
		retries += n.Retries
		errs += n.Errors
		hedges += n.Hedges
		shed += n.Shed
		failed += n.Failed
	}
	for _, s := range rep.PerShard {
		shardCount += int64(s.Count)
	}
	if nodeCount != rep.Requests || shardCount != rep.Requests {
		return fmt.Errorf("per-node digests hold %d samples and per-shard %d, served %d", nodeCount, shardCount, rep.Requests)
	}
	if retries != rep.Retries || errs != rep.Errors || hedges != rep.Hedges || shed != rep.Shed || failed != rep.Failed {
		return fmt.Errorf("per-node resilience columns do not sum to the cluster totals")
	}
	if rep.SLOCompliance < 0 || rep.SLOCompliance > 1 {
		return fmt.Errorf("SLO compliance %v outside [0,1]", rep.SLOCompliance)
	}
	return nil
}
