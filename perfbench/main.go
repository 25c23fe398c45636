// Command perfbench is the genogo benchmark. It runs one seeded workload
// (headline, repo or federated; "all" runs the three in one process) as a
// closed loop of checked queries for a fixed time and prints every metric
// by name and unit, ending with one JSON result line:
//
//	perfbench --workload headline --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of model.json; with
// --trace 1 it alternates traced and untraced queries and reports the
// per-layer metrics, recording a span around each call into a layer and
// writing the spans to the work directory when the run ends. A query whose
// output differs from the set-up's reference digest counts as failed, and
// any failure makes the command exit 1.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed model.json
var modelJSON []byte

// metricDef is one declared metric.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type model struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadModel() (model, error) {
	var m model
	err := json.Unmarshal(modelJSON, &m)
	return m, err
}

var workloadNames = []string{"headline", "repo", "federated"}

const (
	setups     = 5   // set-ups per run; setup_s is their median
	warmups    = 2   // checked but untimed queries before measuring
	minQueries = 100 // so that at least 10 samples lie beyond p90
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command and returns its exit status: 0 when every query
// was correct, 1 when any failed, 2 when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	m, err := loadModel()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: model.json:", err)
		return 2
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadNames
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench seed=%d seconds=%d trace=%v gomaxprocs=%d\n",
		opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, name := range names {
		out, err := runWorkload(name, opt)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		defs := m.EndToEnd
		if opt.trace {
			defs = m.PerLayer
		}
		if err := out.report(stdout, name, defs); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		line.Attempted += out.attempted
		line.Failed += out.failed
		for _, d := range defs {
			key := d.Name
			if len(names) > 1 {
				key = name + "/" + d.Name
			}
			line.Metrics[key] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "headline, repo, federated or all")
	fs.Int64Var(&opt.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 10, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build/perfbench", "directory for the on-disk repository and span files")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() != 0 {
		return opt, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	known := opt.workload == "all"
	for _, n := range workloadNames {
		known = known || opt.workload == n
	}
	if !known {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setup builds one instance of the named workload.
func setup(name string, seed int64, dir string, rec *recorder) (workload, error) {
	switch name {
	case "headline":
		return newHeadline(seed)
	case "repo":
		return newRepo(seed, dir)
	case "federated":
		return newFederated(seed, rec)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload sets the workload up, measures it and, untraced, sets it up
// again setups-1 times for the median set-up time. The extra set-ups come
// after the measured loop: a closed federation node stays reachable from a
// process-wide endpoint index, so set-ups made before the loop would raise
// the heap it runs in.
func runWorkload(name string, opt options) (*outcome, error) {
	dir := filepath.Join(opt.workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer removeAll(dir)
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	var setupS []float64
	timedSetup := func(i int) (workload, error) {
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		w, err := setup(name, opt.seed, filepath.Join(dir, fmt.Sprint(i)), rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		return w, nil
	}
	w, err := timedSetup(0)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS includes set-up:", err)
	}
	out := measure(w, time.Duration(opt.seconds)*time.Second, rec)
	out.sizes = w.sizes()
	if rec != nil {
		if r, ok := w.(*repo); ok {
			skipped, unused, err := r.orProbe()
			if err != nil {
				return nil, fmt.Errorf("OR probe: %w", err)
			}
			out.metrics["formats.or_parts_skipped"] = float64(skipped)
			out.metrics["formats.or_regions_unused"] = float64(unused)
		}
		path := filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.json", name, opt.seed))
		if err := rec.writeFile(path); err != nil {
			return nil, err
		}
		out.spansFile = path
		return out, nil
	}
	if out.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	for i := 1; i < setups; i++ {
		extra, err := timedSetup(i)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	out.metrics["setup_s"] = quantile(setupS, 0.5)
	return out, nil
}

// outcome is what one measured workload produced.
type outcome struct {
	attempted, failed int
	firstErr          error
	timed             int     // untraced queries timed
	p90               float64 // latency_p90_ms, printed but not bounded
	metrics           map[string]float64
	sizes             []sizeEntry
	spansFile         string
}

// measure runs the closed loop: a query, its check, the next query. It
// times for d and, untraced, for at least minQueries queries (stopping at
// 3d regardless). With a recorder, traced and untraced queries alternate: the
// traced ones give the per-layer values, the untraced ones the baseline for
// trace.overhead_pct and the runtime counters.
func measure(w workload, d time.Duration, rec *recorder) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	var untraced, traced []float64
	var sum resDelta
	var wire int64
	layers := map[int64]map[string]float64{} // per traced query
	var qid int64
	runtime.GC()
	began := time.Now()
	for i := 0; ; i++ {
		if i == warmups {
			began = time.Now()
		}
		measuring := i >= warmups
		el := time.Since(began)
		enough := rec != nil || len(untraced) >= minQueries
		if measuring && ((el >= d && enough) || el >= 3*d) {
			break
		}
		var tc *traceCtx
		var root int64
		if rec != nil && i%2 == 1 {
			qid++
			tc = &traceCtx{rec: rec, query: qid}
			root = rec.start(qid, 0, "query")
		}
		wire0 := w.wireBytes()
		r0 := readRes()
		start := time.Now()
		res, layer, err := w.query(tc, root)
		lat := time.Since(start)
		r1 := readRes()
		wire1 := w.wireBytes()
		if tc != nil {
			rec.end(root, nil)
		}
		out.attempted++
		if err == nil {
			err = w.check(res)
		}
		var extra map[string]float64
		if err == nil && tc != nil {
			if a, ok := w.(afterQuery); ok {
				extra, err = a.after(tc, res)
			}
		}
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		if !measuring {
			continue
		}
		ms := float64(lat.Nanoseconds()) / 1e6
		if tc == nil {
			untraced = append(untraced, ms)
			sum.add(r1.sub(r0))
			wire += wire1 - wire0
			continue
		}
		traced = append(traced, ms)
		for k, v := range extra {
			layer[k] += v
		}
		layers[qid] = layer
	}
	out.timed = len(untraced)
	n := float64(max(len(untraced), 1))
	if rec == nil {
		out.metrics["latency_p50_ms"] = quantile(untraced, 0.5)
		out.p90 = quantile(untraced, 0.9)
		out.metrics["cpu_ms_per_query"] = float64(sum.cpu.Nanoseconds()) / 1e6 / n
		out.metrics["alloc_mb_per_query"] = float64(sum.allocBytes) / 1e6 / n
		return out
	}
	// Spans are folded in only now: a node's handler span can end just
	// after the client has its response.
	spans := rec.byQuery()
	for q, layer := range layers {
		spanValues(spans[q], layer)
		for k, v := range layer {
			out.metrics[k] += v
		}
	}
	for k := range out.metrics {
		out.metrics[k] /= float64(len(layers))
	}
	if sum.totalCPU > 0 {
		out.metrics["runtime.gc_cpu_share"] = sum.gcCPU / sum.totalCPU
	}
	out.metrics["runtime.gc_cycles_per_query"] = float64(sum.gcCycles) / n
	out.metrics["runtime.allocs_per_query"] = float64(sum.allocObjs) / n
	out.metrics["federation.wire_mb_per_query"] = float64(wire) / 1e6 / n
	if p50 := quantile(untraced, 0.5); p50 > 0 {
		out.metrics["trace.overhead_pct"] = 100 * (quantile(traced, 0.5) - p50) / p50
	}
	return out
}

// report prints the workload's sizes, query counts and every declared
// metric by name and unit. A metric the run did not produce is printed as
// 0, meaning its layer did no work on this workload.
func (o *outcome) report(w io.Writer, name string, defs []metricDef) error {
	fmt.Fprintf(w, "%s sizes:", name)
	for _, s := range o.sizes {
		fmt.Fprintf(w, " %s=%d", s.name, s.value)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s queries: attempted=%d failed=%d timed=%d error_rate=%g ratio\n",
		name, o.attempted, o.failed, o.timed, float64(o.failed)/float64(max(o.attempted, 1)))
	if o.p90 > 0 {
		beyond := o.timed - int(math.Ceil(0.9*float64(o.timed)))
		fmt.Fprintf(w, "%s %-32s %14.4f ms (%d of %d queries beyond it)\n", name, "latency_p90_ms", o.p90, beyond, o.timed)
	}
	if o.firstErr != nil {
		fmt.Fprintf(w, "%s first failure: %v\n", name, o.firstErr)
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		fmt.Fprintf(w, "%s %-32s %14.4f %s\n", name, d.Name, o.metrics[d.Name], d.Unit)
	}
	if o.spansFile != "" {
		fmt.Fprintf(w, "%s spans: %s\n", name, o.spansFile)
	}
	var extra []string
	for k := range o.metrics {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing from model.json: %v", extra)
	}
	return nil
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// resDelta is the process resource use across one query.
type resDelta struct {
	cpu                 time.Duration // user+sys, getrusage
	allocBytes          uint64
	allocObjs, gcCycles uint64
	gcCPU, totalCPU     float64 // runtime CPU classes, seconds
}

func (a *resDelta) add(b resDelta) {
	a.cpu += b.cpu
	a.allocBytes += b.allocBytes
	a.allocObjs += b.allocObjs
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

func (a resDelta) sub(b resDelta) resDelta {
	return resDelta{cpu: a.cpu - b.cpu, allocBytes: a.allocBytes - b.allocBytes,
		allocObjs: a.allocObjs - b.allocObjs, gcCycles: a.gcCycles - b.gcCycles,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU}
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRes samples the process's cumulative resource counters.
func readRes() resDelta {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return resDelta{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// resetPeakRSS returns the set-ups' garbage to the OS and restarts the
// kernel's peak-RSS count (Linux clear_refs), so peak_rss_mb covers the
// measured queries over the resident workload, not the discarded set-ups.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set since the last reset (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
