package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// headlineScript is the Section 2 query of the paper.
const headlineScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`

// repoScript reads ENCODE twice from disk: unpruned under a p-value filter
// feeding COVER, and pruned to chr1 feeding a JOIN with the promoters.
const repoScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
E = SELECT(dataType == 'ChipSeq'; region: p_value < 0.0001) ENCODE;
C = COVER(2, ANY) E;
S = SELECT(dataType == 'ChipSeq'; region: chr == 'chr1') ENCODE;
J = JOIN(DLE(10000); output: CAT) PROMS S;
MATERIALIZE C INTO C;
MATERIALIZE J INTO J;
`

// orProbeScript exposes the disjunctive-predicate pruning gap: a region
// predicate over two chromosomes skips no partition today.
const orProbeScript = `
X = SELECT(; region: chr == 'chr1' OR chr == 'chr2') ENCODE;
MATERIALIZE X INTO X;
`

const (
	genes     = 2060
	meanPeaks = 700
	chunkSize = 8
	// seedStride spreads the workload seeds apart; seed 0 reproduces the
	// BENCH_PR2..9 headline fixture (ENCODE generator 1038, genes 4000).
	seedStride = 7919
	// Generator bases of the in-memory and on-disk ENCODE fixtures.
	headlineBase = 1000
	repoBase     = 2000
)

// oracle is the reference configuration: serial, the differential oracle's.
var oracle = engine.Config{Mode: engine.ModeSerial, MetaFirst: true}

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// query runs one query; tc is nil when the query is untraced. It returns
	// the output to check and, when traced, the per-layer values read from
	// the span trees the program returned.
	query(tc *traceCtx, root int64) (out any, layer map[string]float64, err error)
	// check compares a query's output with the set-up's reference.
	check(out any) error
	// wireBytes is the payload moved over the wire so far.
	wireBytes() int64
	// sizes are the input and result sizes this instance ran.
	sizes() []sizeEntry
	close()
}

// afterQuery is implemented by workloads that time more layer work after a
// traced query, outside its latency.
type afterQuery interface {
	after(tc *traceCtx, out any) (map[string]float64, error)
}

type sizeEntry struct {
	name  string
	value int64
}

// encodeFixture generates a synthetic ENCODE of the given size from the
// generator seeded base+samples. Its shape — sample IDs, metadata and
// region count per sample — is that of the seed-0 dataset: for base 1000
// the gmqlbench headline fixture, for base 2000 its storage fixture. Other
// seeds redraw every sample's peaks (positions, lengths, values). Peak
// counts are heavy-tailed, so letting the seed redraw them would move the
// work per query between seeds by tens of percent.
func encodeFixture(seed, base int64, samples int) *gdm.Dataset {
	shape := synth.New(base + int64(samples)).
		Encode(synth.EncodeOptions{Samples: samples, MeanPeaks: meanPeaks})
	if seed == 0 {
		return shape
	}
	g := synth.New(base + int64(samples) + seed*seedStride)
	ds := gdm.NewDataset(shape.Name, shape.Schema)
	for _, s := range shape.Samples {
		peaks := g.ChipSeq(s.ID, len(s.Regions))
		peaks.Meta = s.Meta
		ds.MustAdd(peaks)
	}
	return ds
}

// annotationsFixture generates the seeded promoter and gene annotations.
func annotationsFixture(seed int64) *gdm.Dataset {
	g := synth.New(4000 + seed*seedStride)
	return g.Annotations(g.Genes(genes))
}

// result finds a materialized result by target name.
func result(rs []gmql.Result, target string) (*gdm.Dataset, error) {
	for _, r := range rs {
		if r.Target == target {
			return r.Dataset, nil
		}
	}
	return nil, fmt.Errorf("no result %q", target)
}

// materialize runs a script like gmql.Runner.Materialize. Untraced, it is
// that call; traced, it performs the runner's steps itself so each layer
// call gets a span: parse, plan and optimize, evaluate, then clone and sort
// each target.
func materialize(tc *traceCtx, root int64, script string, cfg engine.Config, cat engine.Catalog) ([]gmql.Result, map[string]float64, error) {
	var prog *gmql.Program
	err := tc.step(root, "gmql.parse", func(int64) error {
		var err error
		prog, err = gmql.Parse(script)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if tc == nil {
		rs, err := (&gmql.Runner{Config: cfg, Catalog: cat}).Materialize(prog)
		return rs, nil, err
	}
	session := engine.NewSession(cfg, cat)
	stop := session.Govern(context.Background(), engine.Limits{})
	defer stop()
	var results []gmql.Result
	layer := make(map[string]float64)
	for _, m := range prog.Materialized {
		var plan engine.Node
		_ = tc.step(root, "gmql.plan", func(int64) error {
			plan = engine.Optimize(prog.Plan(m.Var))
			return nil
		})
		var ds *gdm.Dataset
		err := tc.step(root, "engine.eval", func(id int64) error {
			return tc.within(id, func() error {
				var sp *obs.Span
				var err error
				ds, sp, err = session.EvalProfiled(plan)
				if err == nil {
					engineValues(sp, layer)
				}
				return err
			})
		})
		if err != nil {
			return nil, nil, fmt.Errorf("materializing %s: %w", m.Var, err)
		}
		_ = tc.step(root, "gmql.materialize", func(int64) error {
			out := ds.Clone()
			out.Name = m.Target
			out.SortRegions()
			results = append(results, gmql.Result{Var: m.Var, Target: m.Target, Dataset: out})
			return nil
		})
	}
	return results, layer, nil
}

// evalReference evaluates one target of a script with the oracle config.
func evalReference(script, target string, cat engine.Catalog) (*gdm.Dataset, error) {
	prog, err := gmql.Parse(script)
	if err != nil {
		return nil, err
	}
	rs, err := (&gmql.Runner{Config: oracle, Catalog: cat}).Materialize(prog)
	if err != nil {
		return nil, err
	}
	return result(rs, target)
}

func digestCheck(what string, ds *gdm.Dataset, want string) error {
	if ds == nil {
		return fmt.Errorf("%s: no result", what)
	}
	if got := ds.ContentDigest(); got != want {
		return fmt.Errorf("%s: digest %.12s, reference %.12s", what, got, want)
	}
	return nil
}

func chipSamples(ds *gdm.Dataset) int {
	n := 0
	for _, s := range ds.Samples {
		if s.Meta.Matches("dataType", "ChipSeq") {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// headline

type headline struct {
	cat       engine.MapCatalog
	ref       string
	wantRegs  int
	inRegions int64
	samples   int
}

func newHeadline(seed int64) (*headline, error) {
	enc := encodeFixture(seed, headlineBase, 38)
	ann := annotationsFixture(seed)
	w := &headline{
		cat:       engine.MapCatalog{"ENCODE": enc, "ANNOTATIONS": ann},
		samples:   len(enc.Samples),
		inRegions: int64(enc.NumRegions()),
	}
	// MAP cardinality law: one output region per (ChIP sample, promoter).
	w.wantRegs = chipSamples(enc) * len(ann.Sample("promoters").Regions)
	ref, err := evalReference(headlineScript, "result", w.cat)
	if err != nil {
		return nil, err
	}
	if ref.NumRegions() != w.wantRegs {
		return nil, fmt.Errorf("reference breaks the MAP cardinality law: %d regions, want %d", ref.NumRegions(), w.wantRegs)
	}
	w.ref = ref.ContentDigest()
	return w, nil
}

func (w *headline) query(tc *traceCtx, root int64) (any, map[string]float64, error) {
	rs, layer, err := materialize(tc, root, headlineScript, engine.DefaultConfig(), w.cat)
	if err != nil {
		return nil, nil, err
	}
	ds, err := result(rs, "result")
	return ds, layer, err
}

func (w *headline) check(out any) error {
	ds := out.(*gdm.Dataset)
	if ds.NumRegions() != w.wantRegs {
		return fmt.Errorf("MAP cardinality law: %d regions, want %d", ds.NumRegions(), w.wantRegs)
	}
	return digestCheck("result", ds, w.ref)
}

func (w *headline) wireBytes() int64 { return 0 }

func (w *headline) sizes() []sizeEntry {
	return []sizeEntry{{"samples", int64(w.samples)}, {"regions", w.inRegions},
		{"gdmc_bytes", 0}, {"result_regions", int64(w.wantRegs)}}
}

func (w *headline) close() {}

// ---------------------------------------------------------------------------
// repo

type repo struct {
	root, out  string
	refC, refJ string
	samples    int
	inRegions  int64
	gdmcBytes  int64
	resultRegs int64
}

type repoOut struct{ c, j *gdm.Dataset }

func newRepo(seed int64, dir string) (*repo, error) {
	enc := encodeFixture(seed, repoBase, 151)
	ann := annotationsFixture(seed)
	w := &repo{root: filepath.Join(dir, "repo"), out: filepath.Join(dir, "out"),
		samples: len(enc.Samples), inRegions: int64(enc.NumRegions())}
	mem := engine.MapCatalog{"ENCODE": enc, "ANNOTATIONS": ann}
	for _, ds := range []*gdm.Dataset{enc, ann} {
		if err := formats.WriteDatasetColumnar(filepath.Join(w.root, ds.Name), ds); err != nil {
			return nil, err
		}
	}
	c, err := evalReference(repoScript, "C", mem)
	if err != nil {
		return nil, err
	}
	j, err := evalReference(repoScript, "J", mem)
	if err != nil {
		return nil, err
	}
	w.refC, w.refJ = c.ContentDigest(), j.ContentDigest()
	w.resultRegs = int64(c.NumRegions() + j.NumRegions())
	w.gdmcBytes, err = dirBytes(filepath.Join(w.root, "ENCODE"), ".gdmc")
	return w, err
}

func (w *repo) query(tc *traceCtx, root int64) (any, map[string]float64, error) {
	var cat engine.Catalog = formats.NewDirCatalog(w.root)
	if tc != nil {
		cat = &tracedCatalog{inner: cat.(engine.PrunedCatalog), tc: tc}
	}
	rs, layer, err := materialize(tc, root, repoScript, engine.DefaultConfig(), cat)
	if err != nil {
		return nil, nil, err
	}
	var out repoOut
	if out.c, err = result(rs, "C"); err != nil {
		return nil, nil, err
	}
	if out.j, err = result(rs, "J"); err != nil {
		return nil, nil, err
	}
	dst := filepath.Join(w.out, "C")
	err = tc.step(root, "formats.write", func(int64) error {
		return formats.WriteDatasetColumnar(dst, out.c)
	})
	return out, layer, err
}

func (w *repo) check(out any) error {
	o := out.(repoOut)
	if err := digestCheck("C", o.c, w.refC); err != nil {
		return err
	}
	if err := digestCheck("J", o.j, w.refJ); err != nil {
		return err
	}
	man, err := formats.ReadManifest(filepath.Join(w.out, "C"))
	if err != nil {
		return fmt.Errorf("written C: %w", err)
	}
	if man.Digest != w.refC {
		return fmt.Errorf("written C: manifest digest %.12s, reference %.12s", man.Digest, w.refC)
	}
	return nil
}

func (w *repo) after(tc *traceCtx, out any) (map[string]float64, error) {
	n, err := dirBytes(filepath.Join(w.out, "C"), "")
	return map[string]float64{"formats.bytes_written": float64(n)}, err
}

// orProbe reads ENCODE once under a two-chromosome disjunction. It returns
// the partitions the read skipped and the regions it read that the SELECT
// then dropped.
func (w *repo) orProbe() (skipped, unused int64, err error) {
	rec := newRecorder()
	tc := &traceCtx{rec: rec, query: 1}
	cat := &tracedCatalog{inner: formats.NewDirCatalog(w.root), tc: tc}
	_, layer, err := materialize(tc, 0, orProbeScript, engine.DefaultConfig(), cat)
	if err != nil {
		return 0, 0, err
	}
	var read int64
	for _, sp := range rec.byQuery()[1] {
		skipped += sp.Counts["parts_skipped"]
		read += sp.Counts["regions"]
	}
	return skipped, read - int64(layer["engine.regions_out"]), nil
}

func (w *repo) wireBytes() int64 { return 0 }

func (w *repo) sizes() []sizeEntry {
	return []sizeEntry{{"samples", int64(w.samples)}, {"regions", w.inRegions},
		{"gdmc_bytes", w.gdmcBytes}, {"result_regions", w.resultRegs}}
}

func (w *repo) close() {}

// dirBytes totals the sizes of the files under dir whose names end in ext.
func dirBytes(dir, ext string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ext) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ---------------------------------------------------------------------------
// federated

type federated struct {
	servers    []*httptest.Server
	transport  *http.Transport
	fed        *federation.Federator
	live       *atomic.Pointer[traceCtx]
	ref        string
	samples    int
	inRegions  int64
	resultRegs int64
}

func newFederated(seed int64, rec *recorder) (_ *federated, err error) {
	enc := encodeFixture(seed, headlineBase, 38)
	ann := annotationsFixture(seed)
	half := len(enc.Samples) / 2
	slices := []*gdm.Dataset{gdm.NewDataset("ENCODE", enc.Schema), gdm.NewDataset("ENCODE", enc.Schema)}
	for i, s := range enc.Samples {
		slices[i/half].MustAdd(s)
	}
	w := &federated{
		// One connection per node: the closed-loop client has at most one
		// request in flight per node.
		transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		live:      &atomic.Pointer[traceCtx]{},
		samples:   len(enc.Samples),
		inRegions: int64(enc.NumRegions()),
		fed:       &federation.Federator{},
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	// The reference evaluates each node's inputs locally and merges the
	// results in member order, as the federator does.
	var ref *gdm.Dataset
	for i, slice := range slices {
		local := engine.MapCatalog{"ENCODE": slice, "ANNOTATIONS": ann}
		var ds *gdm.Dataset
		if ds, err = evalReference(headlineScript, "result", local); err != nil {
			return nil, err
		}
		if ref == nil {
			ref = ds
		} else if ref, err = engine.Union(engine.Config{MetaFirst: true}, ref, ds); err != nil {
			return nil, err
		}
		node := federation.NewServer(fmt.Sprintf("node%d", i), engine.DefaultConfig(), slice, ann)
		srv := httptest.NewServer(tracedHandler(node.Handler(), rec))
		w.servers = append(w.servers, srv)
		w.fed.Clients = append(w.fed.Clients, federation.NewClient(srv.URL,
			federation.WithTransport(&tracedTransport{inner: w.transport, live: w.live})))
	}
	w.ref = ref.ContentDigest()
	w.resultRegs = int64(ref.NumRegions())
	return w, nil
}

func (w *federated) query(tc *traceCtx, root int64) (any, map[string]float64, error) {
	ctx := context.Background()
	if tc == nil {
		ds, report, err := w.fed.Query(ctx, headlineScript, "RESULT", chunkSize)
		if err == nil && report != nil {
			err = report
		}
		return ds, nil, err
	}
	w.live.Store(tc)
	defer w.live.Store(nil)
	var ds *gdm.Dataset
	var tree *obs.Span
	err := tc.step(root, "federation.query", func(id int64) error {
		return tc.within(id, func() error {
			var report *federation.PartialFailure
			var err error
			ds, tree, report, err = w.fed.QueryProfiled(ctx, headlineScript, "RESULT", chunkSize)
			if err == nil && report != nil {
				err = report
			}
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	// The merged tree holds the MERGE span and, grafted under each member
	// leg, the node's own engine tree.
	layer := make(map[string]float64)
	for _, sp := range tree.Flatten() {
		if sp.Op == "MERGE" {
			layer["federation.merge_ms"] += float64(sp.DurationNS) / 1e6
		}
		for _, c := range sp.Children {
			if c.Remote && !sp.Remote {
				layer["engine.eval_ms"] += float64(c.DurationNS) / 1e6
				engineValues(c, layer)
			}
		}
	}
	return ds, layer, nil
}

// after times the text wire codec on the merged result, outside the query's
// latency: an encode as a node does for a fetch, and a decode as the
// federator does.
func (w *federated) after(tc *traceCtx, out any) (map[string]float64, error) {
	var buf bytes.Buffer
	err := tc.step(0, "formats.wire_encode", func(int64) error { return formats.EncodeDataset(&buf, out.(*gdm.Dataset)) })
	if err != nil {
		return nil, err
	}
	return nil, tc.step(0, "formats.wire_decode", func(int64) error {
		_, err := formats.DecodeDataset(&buf)
		return err
	})
}

func (w *federated) check(out any) error {
	return digestCheck("RESULT", out.(*gdm.Dataset), w.ref)
}

func (w *federated) wireBytes() int64 { return w.fed.BytesMoved() }

func (w *federated) sizes() []sizeEntry {
	return []sizeEntry{{"samples", int64(w.samples)}, {"regions", w.inRegions},
		{"gdmc_bytes", 0}, {"result_regions", w.resultRegs}}
}

func (w *federated) close() {
	for _, s := range w.servers {
		s.Close()
	}
	w.transport.CloseIdleConnections()
}

// removeAll deletes a scratch directory, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
