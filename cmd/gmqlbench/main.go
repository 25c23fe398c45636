// Command gmqlbench runs the PR-over-PR benchmark grid — the Section 2
// headline query on all three backends, untraced and profiled — and writes
// the machine-readable trajectory report (BENCH_PR<n>.json) that perf PRs
// diff against. Unlike the in-package BenchmarkHeadline, it carries its own
// measurement harness so the benchtime and repeat count are configurable
// from the command line, and allocation costs come from runtime/metrics
// deltas (the same accounting the query attribution layer uses).
//
// Usage:
//
//	gmqlbench [-out FILE] [-baseline FILE] [-max-regress PCT]
//	          [-benchtime DUR] [-runs N] [-samples N] [-pr N]
//
// With -baseline, each row is compared against the same-named row of the
// baseline report; a ns/op or allocs/op increase beyond -max-regress fails
// the run with exit status 1 so CI can gate on it. Rows absent from the
// baseline are reported as new and never fail the gate. Each configuration
// is measured -runs times and the minimum ns/op run is kept: the minimum
// estimates the noise-free cost, which is what a regression comparison
// needs on a shared CI host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gmql"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

const headlineScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`

// selectChrScript is the storage A/B workload: a chromosome-restricted SELECT
// read cold from disk. On the text layout every sample file parses in full;
// on the columnar layout the zone maps skip every partition off chr1, so the
// ns/op ratio between the two rows is the measured value of pruned reads.
const selectChrScript = `
RESULT = SELECT(; region: chr == 'chr1') ENCODE;
MATERIALIZE RESULT INTO result;
`

// Row is one measured configuration, in the trajectory format every
// BENCH_PR*.json uses.
type Row struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the trajectory file shape of every BENCH_PR*.json.
type Report struct {
	PR        int                `json:"pr"`
	Benchmark string             `json:"benchmark"`
	Rows      []Row              `json:"rows"`
	Overhead  map[string]float64 `json:"tracing_overhead_pct"`
	// Pruning records the partition-skip accounting of one profiled
	// select-chr/columnar run — the proof that the measured speedup came from
	// pruned reads, not from the binary decode alone.
	Pruning *Pruning `json:"select_chr_pruning,omitempty"`
}

// Pruning is the zone-map accounting of the chromosome-restricted SELECT over
// the columnar layout.
type Pruning struct {
	PartsConsulted int   `json:"parts_consulted"`
	PartsSkipped   int   `json:"parts_skipped"`
	RegionsSkipped int64 `json:"regions_skipped"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmqlbench:", err)
		os.Exit(1)
	}
}

type options struct {
	out        string
	baseline   string
	maxPct     float64
	benchtime  time.Duration
	runs       int
	samples    int
	pr         int
	minSpeedup float64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmqlbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var opt options
	fs.StringVar(&opt.out, "out", "", "write the JSON trajectory report to this file")
	fs.StringVar(&opt.baseline, "baseline", "", "compare against this prior BENCH_PR*.json; regressions fail the run")
	fs.Float64Var(&opt.maxPct, "max-regress", 15, "max tolerated ns/op or allocs/op increase vs the baseline, percent")
	fs.DurationVar(&opt.benchtime, "benchtime", time.Second, "target measured duration per run")
	fs.IntVar(&opt.runs, "runs", 3, "runs per configuration; the minimum ns/op run is kept")
	fs.IntVar(&opt.samples, "samples", 38, "ENCODE sample count of the synthetic fixture")
	fs.IntVar(&opt.pr, "pr", 9, "PR number stamped into the report")
	fs.Float64Var(&opt.minSpeedup, "min-speedup", 3,
		"required ns/op ratio of select-chr/text over select-chr/columnar; 0 disables the gate")
	err := fs.Parse(args)
	if err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if opt.runs < 1 {
		return fmt.Errorf("-runs must be >= 1, got %d", opt.runs)
	}

	// Read the baseline before anything is written so -out and -baseline
	// may name the same file (compare against the old content, then leave
	// the fresh report in place).
	var baseData []byte
	if opt.baseline != "" {
		if baseData, err = os.ReadFile(opt.baseline); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}

	report, err := runGrid(opt, out)
	if err != nil {
		return err
	}
	speedupErr := runStorageGrid(opt, report, out)
	if opt.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opt.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", opt.out)
	}
	if opt.baseline != "" {
		if err := compareBaseline(report, baseData, opt.baseline, opt.maxPct, out); err != nil {
			return err
		}
	}
	return speedupErr
}

// runStorageGrid measures the storage A/B cells — a cold full load and the
// chromosome-restricted SELECT, each against the text and columnar
// materializations of the same dataset — and enforces the pruned-read speedup
// gate. Catalogs run with NoCache so every op pays the real disk cost.
func runStorageGrid(opt options, report *Report, out io.Writer) error {
	dir, err := os.MkdirTemp("", "gmqlbench-storage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g := synth.New(int64(2000 + opt.samples))
	ds := g.Encode(synth.EncodeOptions{Samples: opt.samples, MeanPeaks: 700})
	ds.Name = "ENCODE"
	textRoot, colRoot := filepath.Join(dir, "text"), filepath.Join(dir, "columnar")
	if err := formats.WriteDataset(filepath.Join(textRoot, "ENCODE"), ds); err != nil {
		return err
	}
	if err := formats.WriteDatasetColumnar(filepath.Join(colRoot, "ENCODE"), ds); err != nil {
		return err
	}
	prog, err := gmql.Parse(selectChrScript)
	if err != nil {
		return err
	}
	textCat := &formats.DirCatalog{Root: textRoot, NoCache: true}
	colCat := &formats.DirCatalog{Root: colRoot, NoCache: true}
	cfg := engine.Config{Mode: engine.ModeSerial, MetaFirst: true}

	loadText, loadCol := measurePair(opt,
		func() error { _, err := textCat.Dataset("ENCODE"); return err },
		func() error { _, err := colCat.Dataset("ENCODE"); return err })
	if loadText.err != nil {
		return loadText.err
	}
	if loadCol.err != nil {
		return loadCol.err
	}
	selText, selCol := measurePair(opt,
		func() error {
			_, err := (&gmql.Runner{Config: cfg, Catalog: textCat}).Materialize(prog)
			return err
		},
		func() error {
			_, err := (&gmql.Runner{Config: cfg, Catalog: colCat}).Materialize(prog)
			return err
		})
	if selText.err != nil {
		return selText.err
	}
	if selCol.err != nil {
		return selCol.err
	}
	report.Rows = append(report.Rows,
		loadText.row("load/text"), loadCol.row("load/columnar"),
		selText.row("select-chr/text"), selCol.row("select-chr/columnar"))

	// One profiled run records the zone-map accounting: the report must prove
	// the speedup came from skipped partitions, not just the binary decode.
	_, spans, err := (&gmql.Runner{Config: cfg, Catalog: colCat}).MaterializeProfiled(prog)
	if err != nil {
		return err
	}
	pruning := &Pruning{}
	for _, root := range spans {
		for _, sp := range root.Flatten() {
			pruning.PartsConsulted += sp.PartsConsulted
			pruning.PartsSkipped += sp.PartsSkipped
			pruning.RegionsSkipped += sp.RegionsSkipped
		}
	}
	report.Pruning = pruning

	speedup := selText.nsPerOp / selCol.nsPerOp
	fmt.Fprintf(out, "load     text %9.2fms/op | columnar %9.2fms/op (%.2fx)\n",
		loadText.nsPerOp/1e6, loadCol.nsPerOp/1e6, loadText.nsPerOp/loadCol.nsPerOp)
	fmt.Fprintf(out, "sel-chr  text %9.2fms/op | columnar %9.2fms/op (%.2fx, gate %.1fx) skipped %d of %d partitions (%d regions)\n",
		selText.nsPerOp/1e6, selCol.nsPerOp/1e6, speedup, opt.minSpeedup,
		pruning.PartsSkipped, pruning.PartsConsulted, pruning.RegionsSkipped)
	if opt.minSpeedup > 0 {
		if speedup < opt.minSpeedup {
			return fmt.Errorf("pruned columnar SELECT is only %.2fx faster than text, gate requires %.1fx",
				speedup, opt.minSpeedup)
		}
		if pruning.PartsSkipped == 0 {
			return fmt.Errorf("select-chr run skipped 0 of %d partitions: pruning did not engage",
				pruning.PartsConsulted)
		}
	}
	return nil
}

// runGrid builds the synthetic headline fixtures and measures every
// (engine, profiled) cell.
func runGrid(opt options, out io.Writer) (*Report, error) {
	g := synth.New(int64(1000 + opt.samples))
	encode := g.Encode(synth.EncodeOptions{Samples: opt.samples, MeanPeaks: 700})
	ga := synth.New(4000)
	annotations := ga.Annotations(ga.Genes(2060))
	cat := engine.MapCatalog{"ENCODE": encode, "ANNOTATIONS": annotations}
	prog, err := gmql.Parse(headlineScript)
	if err != nil {
		return nil, err
	}

	report := &Report{PR: opt.pr, Benchmark: "BenchmarkHeadline", Overhead: map[string]float64{}}
	modes := []struct {
		Name string
		Mode engine.Mode
	}{
		{"serial", engine.ModeSerial},
		{"batch", engine.ModeBatch},
		{"stream", engine.ModeStream},
	}
	for _, m := range modes {
		cfg := engine.Config{Mode: m.Mode, MetaFirst: true}
		runner := &gmql.Runner{Config: cfg, Catalog: cat}
		base, prof := measurePair(opt,
			func() error {
				_, err := runner.Materialize(prog)
				return err
			},
			func() error {
				_, _, err := runner.MaterializeProfiled(prog)
				return err
			})
		if base.err != nil {
			return nil, base.err
		}
		if prof.err != nil {
			return nil, prof.err
		}
		report.Rows = append(report.Rows,
			base.row(m.Name), prof.row(m.Name+"/profiled"))
		pct := 100 * (prof.nsPerOp - base.nsPerOp) / base.nsPerOp
		report.Overhead[m.Name] = pct
		fmt.Fprintf(out, "%-8s %9.2fms/op %8d allocs/op | profiled %9.2fms/op %8d allocs/op | overhead %+.2f%%\n",
			m.Name, base.nsPerOp/1e6, base.allocsPerOp, prof.nsPerOp/1e6, prof.allocsPerOp, pct)
	}
	return report, nil
}

// result is one kept measurement.
type result struct {
	ops         int
	nsPerOp     float64
	allocsPerOp int64
	bytesPerOp  int64
	err         error
}

func (r result) row(name string) Row {
	return Row{Name: name, Ops: r.ops, NsPerOp: r.nsPerOp,
		AllocsPerOp: r.allocsPerOp, BytesPerOp: r.bytesPerOp}
}

// measurePair measures the untraced and profiled variants in strict
// alternation — base, prof, base, prof, ... — opt.runs times each, and
// keeps each variant's minimum-ns/op run. Interleaving matters on a shared
// host: measuring one variant's runs in a contiguous block and then the
// other's lets minutes of load drift masquerade as overhead, while
// alternating runs see the same drift and it cancels out of the comparison.
func measurePair(opt options, baseFn, profFn func() error) (base, prof result) {
	base, prof = result{nsPerOp: -1}, result{nsPerOp: -1}
	for run := 0; run < opt.runs; run++ {
		for i, fn := range []func() error{baseFn, profFn} {
			r := measureOnce(opt.benchtime, fn)
			best := &base
			if i == 1 {
				best = &prof
			}
			if r.err != nil {
				*best = r
				return base, prof
			}
			if best.nsPerOp < 0 || r.nsPerOp < best.nsPerOp {
				*best = r
			}
		}
	}
	return base, prof
}

// measureOnce runs one warmup op and then a timed loop of at least
// benchtime. Allocation figures come from runtime/metrics deltas across the
// whole loop (the same counters query attribution reads), so they include
// everything the op allocated on any goroutine it spawned.
func measureOnce(benchtime time.Duration, fn func() error) result {
	if err := fn(); err != nil { // warm up; also surfaces errors early
		return result{err: err}
	}
	runtime.GC()
	ops := 0
	baseRes := obs.ReadRes()
	start := time.Now()
	var elapsed time.Duration
	for elapsed < benchtime {
		if err := fn(); err != nil {
			return result{err: err}
		}
		ops++
		elapsed = time.Since(start)
	}
	delta := obs.ReadRes().Sub(baseRes)
	return result{
		ops:         ops,
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		allocsPerOp: delta.AllocObjs / int64(ops),
		bytesPerOp:  delta.AllocBytes / int64(ops),
	}
}

// compareBaseline diffs the fresh report against a committed baseline and
// fails on any same-named row whose ns/op or allocs/op grew more than
// maxPct percent. Tiny rows (under a millisecond or a thousand allocations)
// are skipped: at that scale the percentage is all noise.
func compareBaseline(report *Report, data []byte, path string, maxPct float64, out io.Writer) error {
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	prior := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		prior[r.Name] = r
	}
	var regressions []string
	names := make([]string, 0, len(report.Rows))
	for _, r := range report.Rows {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	rows := make(map[string]Row, len(report.Rows))
	for _, r := range report.Rows {
		rows[r.Name] = r
	}
	for _, name := range names {
		r := rows[name]
		b, ok := prior[name]
		if !ok {
			fmt.Fprintf(out, "baseline: %-18s new row (no prior measurement)\n", name)
			continue
		}
		nsPct := pctChange(r.NsPerOp, b.NsPerOp)
		allocPct := pctChange(float64(r.AllocsPerOp), float64(b.AllocsPerOp))
		fmt.Fprintf(out, "baseline: %-18s ns/op %+7.2f%%  allocs/op %+7.2f%% (vs PR %d)\n",
			name, nsPct, allocPct, base.PR)
		if b.NsPerOp >= 1e6 && nsPct > maxPct {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %+.2f%% (%.0f -> %.0f, limit %+.0f%%)",
					name, nsPct, b.NsPerOp, r.NsPerOp, maxPct))
		}
		if b.AllocsPerOp >= 1000 && allocPct > maxPct {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %+.2f%% (%d -> %d, limit %+.0f%%)",
					name, allocPct, b.AllocsPerOp, r.AllocsPerOp, maxPct))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(out, "REGRESSION", r)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%% vs %s", len(regressions), maxPct, path)
	}
	return nil
}

func pctChange(now, before float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (now - before) / before
}
