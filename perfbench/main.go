// Command perfbench is the repository's benchmark: it drives the
// fault-injection system through its public entry points on three fixed
// workloads, checks every report it gets back, and prints end-to-end
// metrics (or, with --trace 1, per-layer metrics derived from spans). See
// README.md for the workloads, the metrics and reference figures.
//
//	perfbench [--workload name] [--seed n] [--seconds s] [--trace 0|1]
//
// Without --workload it runs every workload, each in its own process. The
// last line of a single workload's output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	tracer  *Tracer // nil unless --trace 1
}

// outcome is what a workload run returns: injections attempted and failed,
// whether every check passed, and its metrics by name.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	notes             []string // extra result lines printed before the JSON
}

// fail records a failed check; the run's injections counted in failedN
// are reported as failed.
func (o *outcome) fail(failedN int, err error) {
	o.failed += int64(failedN)
	o.problems = append(o.problems, err.Error())
}

type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"inj_per_s", "inj/s"},
	{"inj_per_cpu_s", "inj/cpu-s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"campaign_s_p50", "s"},
}

// perLayer are derived from the spans of a traced run. A workload reports
// 0 for a metric of a layer it does not exercise (see README.md).
var perLayer = []metricDef{
	{"trace.inj_per_s", "inj/s"},
	{"campaign.build_ms", "ms"},
	{"network.golden_ms", "ms"},
	{"faultinj.inj_us.conv1", "us"},
	{"faultinj.inj_us.conv2", "us"},
	{"faultinj.inj_us.conv3", "us"},
	{"faultinj.inj_us.conv4", "us"},
	{"faultinj.inj_us.conv5", "us"},
	{"faultinj.inj_us.fc6", "us"},
	{"faultinj.inj_us.fc7", "us"},
	{"faultinj.inj_us.fc8", "us"},
	{"faultinj.shard_ms", "ms"},
	{"faultinj.masked", "count"},
	{"faultinj.premasked", "count"},
	{"engine.pilot_ms", "ms"},
	{"engine.table_ms", "ms"},
	{"engine.main_ms", "ms"},
	{"engine.merge_ms", "ms"},
	{"campaign.exec_ms.datapath", "ms"},
	{"campaign.exec_ms.buffer", "ms"},
	{"campaign.exec_ms.systolic", "ms"},
	{"campaign.surface_setup_ms.buffer", "ms"},
	{"campaign.surface_setup_ms.systolic", "ms"},
	{"eyeriss.shard_ms", "ms"},
	{"systolic.shard_ms", "ms"},
	{"campaign.report_post_ms", "ms"},
	{"campaign.golden_hits", "count"},
	{"campaign.golden_misses", "count"},
	{"campaign.solo_s", "s"},
	{"controlplane.submit_ms", "ms"},
	{"controlplane.lease_ms", "ms"},
	{"controlplane.reports_ms", "ms"},
	{"controlplane.lease_calls", "count"},
	{"controlplane.lease_empty", "count"},
	{"controlplane.reports_calls", "count"},
	{"controlplane.fsyncs", "count"},
	{"controlplane.events_per_fsync", "event/fsync"},
	{"controlplane.fsync_ms", "ms"},
	{"controlplane.journal_bytes", "bytes"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"alexnet-fixed-perbit": runAlexNet,
	"convnet-f16-bitplane": runConvNet,
	"fleet-mixed":          runFleet,
}

// setupReps is how many extra set-ups each run times before its rounds, so
// that setup_s is a median over enough samples to be steady.
const setupReps = 15

// buildDir holds the benchmark's build output, journals and span files,
// relative to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll())
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.tracer != nil {
		defs = perLayer
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tracer.Write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	printResult(*workload, out, defs)
}

// runAll runs every workload in a child process of its own, passing the
// other flags through.
func runAll() int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		args := []string{"--workload", name}
		flag.Visit(func(f *flag.Flag) { args = append(args, "--"+f.Name, f.Value.String()) })
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("== %s\n", name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints one line per metric, the operation counts and any
// failed checks, then the JSON result as the last line.
func printResult(workload string, out *outcome, defs []metricDef) {
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("%s: %d injections attempted, %d failed, GOMAXPROCS %d\n", workload, out.attempted, out.failed, runtime.GOMAXPROCS(0))
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// roundNote summarizes the per-round rates behind a run's inj_per_s.
func roundNote(rates []float64) string {
	return fmt.Sprintf("rounds %d, per-round inj/s min %.6g median %.6g max %.6g",
		len(rates), slices.Min(rates), median(rates), slices.Max(rates))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the process's largest resident set, sampled every
// 5 ms from /proc/self/statm, between start and stop.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// startRSS returns the memory the heap no longer needs to the OS, so every
// round starts from the same resident set, then starts sampling.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, residentMB())
			case <-s.stop:
				s.done <- max(peak, residentMB())
				return
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	return <-s.done
}

// residentMB is the process's current resident set in MB (0 where
// /proc/self/statm cannot be read).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
