// perfbench is the repository benchmark: it runs one committed workload
// (colocation, brownout or paper-quick) in this process, checks that the
// simulated output is correct and identical across iterations, and prints
// every metric by name with its unit. The last line of standard output is
// the result object; the line before it records the environment, the
// output fingerprint and the exact model outputs.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload colocation [-seed 42] [-seconds 10] [-trace 0|1]
//
// With -trace 0 it repeats the workload until -seconds have passed and
// reports the end-to-end metrics as medians over iterations, host times in
// normalised seconds (see speed.go). With -trace 1 it alternates untraced
// and traced iterations, runs the per-layer probes on the workload's own
// inputs, reports the per-layer metrics, and writes the spans as JSON
// lines to -trace-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// envSwitches are the variables that select alternative code paths the
// benchmark must not measure.
var envSwitches = []string{"HERMES_WORKLOAD", "HERMES_FLATMAP", "HERMES_UPDATE_GOLDEN"}

const (
	// maxIterations bounds an untraced run however fast its workload is.
	maxIterations = 50
	// setup_s is the median of setupSamples set-up samples, each timing
	// a batch of consecutive set-ups that lasts at least minSetupBatch:
	// paper-quick's set-up takes microseconds, too little to time one at
	// a time above timer and cache noise. Sampling stops early after
	// maxSetupSampling.
	setupSamples     = 31
	minSetupBatch    = 10 * time.Millisecond
	maxSetupSampling = 3 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: colocation, brownout or paper-quick")
	seed := fs.String("seed", "", "workload seed (default: the workload's committed seed)")
	seconds := fs.Float64("seconds", 10, "measure for this many host seconds (at least one iteration)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSON lines to this file")
	commit := fs.String("commit", "unknown", "commit or source identity to record in the output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, v := range envSwitches {
		if val, ok := os.LookupEnv(v); ok {
			return fmt.Errorf("environment variable %s is set (%q): it switches a code path the benchmark must not measure; unset it", v, val)
		}
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	s := w.seed
	if *seed != "" {
		if s, err = strconv.ParseUint(*seed, 10, 64); err != nil {
			return fmt.Errorf("-seed: %w", err)
		}
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 1) {
		return fmt.Errorf("-seconds must be a positive, finite number (got %v)", *seconds)
	}
	runtime.GOMAXPROCS(w.gomaxprocs)

	var res result
	var info runInfo
	if *trace == 0 {
		res, info = measure(w, s, time.Duration(*seconds*float64(time.Second)))
	} else {
		var tr *tracer
		res, info, tr = traced(w, s, time.Duration(*seconds*float64(time.Second)))
		if tr != nil {
			printSummary(tr)
			if *traceOut != "" {
				if err := writeSpans(*traceOut, tr); err != nil {
					return err
				}
			}
		}
	}
	info.Workload = w.name
	info.Seed = s
	info.GoMaxProcs = runtime.GOMAXPROCS(0)
	info.GoVersion = runtime.Version()
	info.NumCPU = runtime.NumCPU()
	info.Commit = *commit
	if err := printJSON(map[string]any{"perfbench": info}); err != nil {
		return err
	}
	return printJSON(res)
}

// runInfo is the record printed before the result: the environment, the
// fingerprint every iteration must reproduce, and the model outputs.
type runInfo struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go"`
	NumCPU      int                `json:"nproc"`
	Commit      string             `json:"commit"`
	Iterations  int                `json:"iterations"`
	Setups      int                `json:"setups,omitempty"`
	RawRunS     float64            `json:"raw_run_s,omitempty"`
	RefS        float64            `json:"ref_s,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Served      int64              `json:"served,omitempty"`
	SimReqPerS  float64            `json:"sim_req_per_s,omitempty"`
	Model       map[string]float64 `json:"model,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// iteration is one measured pass over a workload.
type iteration struct {
	setup, run time.Duration
	// normRun is run in normalised seconds when a sampler timed the run
	// (sampled is true); otherwise the caller normalises run.
	normRun    float64
	sampled    bool
	allocBytes uint64
	rssMB      float64
	out        output
	in         probeInputs
}

// once builds a fresh instance, sets it up and runs it, converting a panic
// into an error so that a crashing iteration counts as a failed run.
func once(w workloadDef, seed uint64, tr *tracer) (it iteration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	inst, err := w.newInstance(seed)
	if err != nil {
		return it, err
	}
	defer inst.close()
	// Each iteration starts from a heap returned to the OS and a fresh
	// peak-RSS count, so its peak does not depend on the garbage and the
	// collector timing of what ran before it.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return it, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := inst.setup(tr); err != nil {
		return it, fmt.Errorf("setup: %w", err)
	}
	var smp *sampler
	if w.sampled {
		smp = startSampler()
		defer smp.halt() // also when the run panics
	}
	t1 := time.Now()
	it.out, err = inst.run(tr)
	t2 := time.Now()
	it.setup, it.run = t1.Sub(t0), t2.Sub(t1)
	if smp != nil {
		it.run, it.normRun, it.sampled = smp.finish(t1, t2)
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return it, fmt.Errorf("run: %w", err)
	}
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if it.rssMB, err = peakRSSMB(); err != nil {
		return it, err
	}
	it.in = inst.inputs()
	return it, nil
}

// setupBatch builds and sets up n fresh instances without running them
// and returns the summed set-up time.
func setupBatch(w workloadDef, seed uint64, n int) (d time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	for i := 0; i < n; i++ {
		inst, err := w.newInstance(seed)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = inst.setup(nil)
		d += time.Since(t0)
		inst.close()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
	}
	return d, nil
}

// sampleSetups returns host seconds per set-up from batches of set-ups,
// the batch size doubled until one batch lasts minSetupBatch.
func sampleSetups(w workloadDef, seed uint64) ([]float64, error) {
	var xs []float64
	n := 1
	start := time.Now()
	for len(xs) < setupSamples && time.Since(start) < maxSetupSampling {
		runtime.GC()
		d, err := setupBatch(w, seed, n)
		if err != nil {
			return nil, err
		}
		if d < minSetupBatch && len(xs) == 0 {
			n *= 2
			continue
		}
		xs = append(xs, d.Seconds()/float64(n))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("no set-up batch reached %v within %v", minSetupBatch, maxSetupSampling)
	}
	return xs, nil
}

// checker holds the per-process correctness state: the fingerprint every
// iteration must reproduce and, where the workload serves its whole
// stream, the request count drained from its driver.
type checker struct {
	w           workloadDef
	fingerprint string
	drained     int64
	errors      []string
}

// check records a failed run; a set-up-only repetition passes an empty
// iteration, which has nothing to verify.
func (c *checker) check(it iteration, err error) bool {
	if err == nil && it.out.canonical != nil {
		err = c.verify(it)
	}
	if err != nil {
		c.errors = append(c.errors, err.Error())
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed run: %v\n", c.w.name, err)
		return false
	}
	return true
}

func (c *checker) verify(it iteration) error {
	fp := it.out.fingerprint()
	if c.fingerprint == "" {
		c.fingerprint = fp
	} else if fp != c.fingerprint {
		return fmt.Errorf("fingerprint %s differs from the run's first %s: the simulation is not deterministic", fp, c.fingerprint)
	}
	if c.w.servesStream {
		if c.drained == 0 {
			c.drained = it.in.stream(func(req) {})
		}
		if it.out.served != c.drained {
			return fmt.Errorf("served %d requests, the drained driver generated %d", it.out.served, c.drained)
		}
	}
	return nil
}

// measure repeats the workload until the budget is spent and reports the
// end-to-end metrics as medians over iterations.
func measure(w workloadDef, seed uint64, budget time.Duration) (result, runInfo) {
	c := &checker{w: w}
	ref := newSpeedRef()
	var runs, rawRuns, allocs, rss []float64
	var last iteration
	attempted, failed := 0, 0
	start := time.Now()
	for attempted < maxIterations && (attempted == 0 || time.Since(start) < budget) {
		it, err := once(w, seed, nil)
		norm := ref.normalise(it)
		attempted++
		if !c.check(it, err) {
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: setup %.4fs run %.4fs (normalised %.4fs)\n", w.name, attempted, it.setup.Seconds(), it.run.Seconds(), norm)
		runs = append(runs, norm)
		rawRuns = append(rawRuns, it.run.Seconds())
		allocs = append(allocs, float64(it.allocBytes)/(1<<20))
		rss = append(rss, it.rssMB)
		last = it
	}
	// The set-up samples are one segment: normalising each short batch
	// on its own would spend most of the sampling time in the reference.
	var setups []float64
	if len(runs) > 0 {
		t0 := time.Now()
		raw, err := sampleSetups(w, seed)
		if err != nil {
			c.check(iteration{}, err)
			attempted++
			failed++
		}
		scale := ref.scale(time.Since(t0))
		for _, x := range raw {
			setups = append(setups, x*scale)
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	info := runInfo{Iterations: len(runs), Setups: len(setups), Fingerprint: c.fingerprint, RefS: ref.median(), Errors: c.errors}
	if len(runs) == 0 || len(setups) == 0 {
		return res, info
	}
	info.RawRunS = median(rawRuns)
	res.Metrics["run_s"] = metric{median(runs), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["host_alloc_mb"] = metric{median(allocs), "MB"}
	res.Metrics["peak_rss_mb"] = metric{slices.Max(rss), "MB"}
	info.Served = last.out.served
	if last.out.served > 0 {
		info.SimReqPerS = float64(last.out.served) / info.RawRunS
	}
	info.Model = last.out.model
	return res, info
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set (VmHWM) from its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// printSummary prints each span name's calls, total and self time to
// standard error, largest total first.
func printSummary(tr *tracer) {
	fmt.Fprintf(os.Stderr, "%-32s %6s %10s %10s\n", "span", "calls", "total_s", "self_s")
	for _, s := range tr.summary() {
		fmt.Fprintf(os.Stderr, "%-32s %6d %10.4f %10.4f\n", s.Name, s.Calls, s.TotalS, s.SelfS)
	}
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
