package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The self-test runs from the benchmark's directory, so the committed
// scenario and BENCHMARK.json sit one level up.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

const (
	smallColocation = 50_000 // requests
	smallBrownout   = 0.05   // scenario scale
)

func smallWorkload(name string) workloadDef {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	switch name {
	case "colocation":
		w.newInstance = func(seed uint64) (instance, error) { return newColocationScaled(seed, smallColocation) }
	case "brownout":
		w.newInstance = func(seed uint64) (instance, error) { return &brownout{seed: seed, scale: smallBrownout}, nil }
	}
	return w
}

// fingerprintOf runs one iteration of a reduced-scale cluster workload on
// the chosen engine and returns its output fingerprint.
func fingerprintOf(t *testing.T, name string, seed uint64, sequential bool) string {
	t.Helper()
	w := smallWorkload(name)
	inst, err := w.newInstance(seed)
	if err != nil {
		t.Fatal(err)
	}
	switch in := inst.(type) {
	case *colocation:
		in.cfg.Sequential = sequential
	case *brownout:
		in.sequential = sequential
	}
	defer inst.close()
	if err := inst.setup(nil); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	out, err := inst.run(nil)
	if err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	return out.fingerprint()
}

// The sequential oracle and the default engine must produce the same
// simulated output at one and at two cores, or the fingerprint gate would
// depend on the host.
func TestEnginesAgree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"colocation", "brownout"} {
		w := smallWorkload(name)
		var want string
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, seq := range []bool{true, false} {
				got := fingerprintOf(t, name, w.seed, seq)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s: GOMAXPROCS=%d sequential=%v fingerprint %s, want %s", name, procs, seq, got, want)
				}
			}
		}
		if other := fingerprintOf(t, name, w.holdout, false); other == want {
			t.Errorf("%s: seeds %d and %d give the same fingerprint %s: -seed is not applied", name, w.seed, w.holdout, want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics requires res to carry exactly the declared metrics, each
// with a well-formed name and the declared unit.
func checkMetrics(t *testing.T, label string, res result, declared []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	for name, m := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %s", label, name, metricName)
		}
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", label, name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", label, name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", label, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s: declared metric %s is missing", label, name)
		}
	}
}

func TestMetricsMatchDeclaration(t *testing.T) {
	b := readBenchmarkFile(t)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var known []string
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !slices.Equal(declared, known) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", declared, known)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"colocation", "brownout"} {
		w := smallWorkload(name)
		runtime.GOMAXPROCS(w.gomaxprocs)
		res, info := measure(w, w.seed, 0)
		checkMetrics(t, name+" untraced", res, b.EndToEnd)
		if info.Fingerprint == "" || info.Served <= 0 {
			t.Errorf("%s: fingerprint %q, served %d", name, info.Fingerprint, info.Served)
		}
		res, _, tr := traced(w, w.seed, 0)
		checkMetrics(t, name+" traced", res, b.PerLayer)
		if tr == nil || tr.total("cluster.NewCluster") <= 0 {
			t.Errorf("%s: traced run recorded no cluster.NewCluster span", name)
		}
	}
}

func TestRejectsBadInvocation(t *testing.T) {
	err := run([]string{"-workload", "no-such-workload"})
	if err == nil || !strings.Contains(err.Error(), `"no-such-workload"`) {
		t.Errorf("unknown workload: got %v, want an error naming it", err)
	}
	for _, v := range envSwitches {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			err := run([]string{"-workload", "colocation"})
			if err == nil || !strings.Contains(err.Error(), v) {
				t.Errorf("got %v, want an error naming %s", err, v)
			}
		})
	}
}

// TestSamplerFinish checks the sampled normalisation on fixed timings:
// the pieces' own time is taken out of the host time, and each gap is
// scaled by how much slower than nominal the pieces around it ran.
func TestSamplerFinish(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := time.Millisecond
	for _, slow := range []time.Duration{1, 2} {
		s := &sampler{
			stop:  make(chan struct{}),
			done:  make(chan struct{}),
			start: []time.Time{t0.Add(100 * ms), t0.Add(200 * ms)},
			dur:   []time.Duration{slow * pieceNominal, slow * pieceNominal},
		}
		close(s.done)
		host, norm, ok := s.finish(t0, t0.Add(300*ms))
		want := 300*ms - 2*slow*pieceNominal
		if !ok || host != want || math.Abs(norm-want.Seconds()/float64(slow)) > 1e-12 {
			t.Errorf("pieces %d× nominal: got host %v, normalised %v s, ok %v; want %v, %v s, true", slow, host, norm, ok, want, want.Seconds()/float64(slow))
		}
	}
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	close(s.done)
	if host, _, ok := s.finish(t0, t0.Add(ms)); ok || host != ms {
		t.Errorf("no pieces: got host %v, ok %v; want %v, false", host, ok, ms)
	}
}
