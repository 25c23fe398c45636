package engine

import (
	"math"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// Pruning-opportunity accounting (ROADMAP item 1's measured target): traced
// SELECT, JOIN and MAP runs consult the same per-(sample, chromosome) zone
// windows the catalog persists and count which partitions provably
// contribute zero output — the data a pruning storage engine would never
// have loaded. The counts ride on the operator's span (EXPLAIN ANALYZE's
// `prunable=`), the cost registry, and the genogo_prune_* counters; the
// kernels themselves still process everything, so the numbers measure the
// opportunity, not a behavior change.

// zonePart is one (sample, chromosome) partition with its zone extents: the
// in-memory equivalent of one catalog ChromStats cell.
type zonePart struct {
	chrom    string
	regions  int
	minStart int64
	maxStop  int64
}

// zoneParts enumerates a dataset's partitions. Samples are canonically
// sorted by (chrom, start, stop), so minStart is the run's first region;
// maxStop needs the scan (a long region can start early and end last).
func zoneParts(ds *gdm.Dataset) []zonePart {
	var out []zonePart
	for _, s := range ds.Samples {
		for _, cs := range chromSpans(s) {
			p := zonePart{
				chrom: cs.chrom, regions: cs.hi - cs.lo,
				minStart: s.Regions[cs.lo].Start, maxStop: s.Regions[cs.lo].Stop,
			}
			for i := cs.lo + 1; i < cs.hi; i++ {
				if s.Regions[i].Stop > p.maxStop {
					p.maxStop = s.Regions[i].Stop
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// partKeep is one operator's pruning proof: it reports whether a (sample,
// chromosome) partition with the given zone window can contribute output.
// The same function drives the traced accounting (observePrunable) and the
// pruned read (prunedScan), so the reported prunable count is exactly what a
// pruned read skips.
type partKeep func(chrom string, minStart, maxStop int64) bool

// observePrunable records on a traced operator's span how many partitions
// its keep functions reject: keeps[i] judges the partitions of ins[i] (one
// per pruned input; JOIN has two). Untraced runs skip the scan entirely.
func observePrunable(sp *obs.Span, keeps []partKeep, ins ...*gdm.Dataset) {
	if sp == nil {
		return
	}
	consulted, pparts := 0, 0
	var pregions int64
	for i, in := range ins {
		for _, p := range zoneParts(in) {
			consulted++
			if !keeps[i](p.chrom, p.minStart, p.maxStop) {
				pparts++
				pregions += int64(p.regions)
			}
		}
	}
	if consulted > 0 {
		sp.SetPrunable(consulted, pparts, pregions)
	}
}

// chromExtent is the union of every partition window on one chromosome.
type chromExtent struct {
	minStart int64
	maxStop  int64
}

// extents maps each chromosome to the union of its partition windows.
type extents map[string]chromExtent

// widen grows the chromosome's extent to cover [minStart, maxStop).
func (x extents) widen(chrom string, minStart, maxStop int64) {
	e, ok := x[chrom]
	if !ok {
		x[chrom] = chromExtent{minStart, maxStop}
		return
	}
	x[chrom] = chromExtent{min(e.minStart, minStart), max(e.maxStop, maxStop)}
}

// chromExtents is the zone view of a loaded dataset.
func chromExtents(ds *gdm.Dataset) extents {
	out := make(extents)
	for _, p := range zoneParts(ds) {
		out.widen(p.chrom, p.minStart, p.maxStop)
	}
	return out
}

// statsExtents is the zone view of a dataset that has not been loaded, from
// its manifest stats block.
func statsExtents(st *catalog.DatasetStats) extents {
	out := make(extents)
	for i := range st.Samples {
		for _, cs := range st.Samples[i].Chroms {
			out.widen(cs.Chrom, cs.MinStart, cs.MaxStop)
		}
	}
	return out
}

// selectKeep is SELECT's proof: a partition the region predicate's zone
// window prunes holds only rejected regions. ok is false when the predicate
// has no zone-checkable structure.
func selectKeep(region expr.Node) (keep partKeep, ok bool) {
	if region == nil {
		return nil, false
	}
	w, ok := catalog.PredicateWindow(region)
	if !ok {
		return nil, false
	}
	return func(chrom string, minStart, maxStop int64) bool {
		return !w.Prunes(chrom, minStart, maxStop)
	}, true
}

// joinKeep is JOIN's proof for one side: a partition can pair only if its
// chromosome appears on the other side and, under a distance upper bound
// (DLE/DL clauses), its window lies within the bound of the other side's
// whole-chromosome extent. MD(k) and stream clauses only narrow further, so
// ignoring them stays sound.
func joinKeep(other extents, pred GenometricPred) partKeep {
	bound, hasBound := pred.upperBound()
	return func(chrom string, minStart, maxStop int64) bool {
		e, ok := other[chrom]
		if !ok {
			return false
		}
		return !hasBound || minStart <= satAdd(e.maxStop, bound) && maxStop >= satSub(e.minStart, bound)
	}
}

// mapKeep is MAP's proof for the experiment side: reference regions are
// always emitted (a zero count is still a row), so only an experiment
// partition overlapping some reference extent can change the output.
func mapKeep(ref extents) partKeep {
	return func(chrom string, minStart, maxStop int64) bool {
		e, ok := ref[chrom]
		return ok && minStart < e.maxStop && maxStop > e.minStart
	}
}

// Pruned execution (the realized counterpart of the accounting above): when
// the session's catalog is a PrunedCatalog, SELECT/JOIN/MAP over Scan inputs
// load those scans through the partition-level read path, skipping every
// partition whose zone window proves it irrelevant — for columnar datasets
// the skipped bytes are never read. Soundness rests on two facts: a skipped
// partition provably contributes zero regions to the pruning operator's
// output (the same partKeep proofs observePrunable accounts), and pruned
// reads keep every sample (possibly region-empty), so sample-level semantics
// — meta filters, sample pairing, zero-count MAP rows — are untouched.
//
// Pruned scan results are query-specific subsets, so they are deliberately
// kept out of the session's plan-node result cache: another consumer of the
// same Scan node still gets the full dataset.

// prunedScan reads one Scan through the catalog's partition-level path,
// recording the realized skip accounting on csp (the scan's pre-attached
// span; nil when untraced).
func (e *evaluator) prunedScan(pc PrunedCatalog, scan *Scan, csp *obs.Span, keep partKeep) (*gdm.Dataset, error) {
	start := time.Now()
	ds, st, err := pc.DatasetPruned(scan.Dataset, keep)
	if err != nil {
		return nil, err
	}
	if csp != nil {
		csp.SetSkipped(st.Parts, st.SkippedParts, st.SkippedRegions)
		finishSpan(csp, e.cfg, ds, start)
	}
	return ds, nil
}

// pruner returns the session's pruning catalog when pruning is on.
func (e *evaluator) pruner() (PrunedCatalog, bool) {
	pc, ok := e.cat.(PrunedCatalog)
	return pc, ok && !e.cfg.DisablePruning
}

// selectPrunable reports whether a SELECT with the given region predicate
// over input can load input pruned: pruning is on, the input is a Scan and
// the predicate yields a zone window.
func (e *evaluator) selectPrunable(region expr.Node, input Node) (PrunedCatalog, *Scan, partKeep, bool) {
	pc, ok := e.pruner()
	scan, isScan := input.(*Scan)
	keep, hasWindow := selectKeep(region)
	return pc, scan, keep, ok && isScan && hasWindow
}

// prunedScanChild is prunedScan for a scan profiled as a child of sp.
func (e *evaluator) prunedScanChild(pc PrunedCatalog, scan *Scan, sp *obs.Span, keep partKeep) (*gdm.Dataset, error) {
	var csp *obs.Span
	if sp != nil {
		csp = newSpan(scan, e.cfg)
		sp.AddChild(csp)
	}
	return e.prunedScan(pc, scan, csp, keep)
}

// trySelectPruned handles SELECT directly over a Scan on a pruning catalog:
// the scan loads only the partitions the region predicate's zone window
// cannot prune. Every skipped partition holds only predicate-rejected
// regions, so the SELECT output is identical to the unpruned path's — which
// also makes caching that output under the SelectOp node (eval's normal
// wrapper) safe.
func (e *evaluator) trySelectPruned(op *SelectOp, sp *obs.Span) (*gdm.Dataset, bool, error) {
	pc, scan, keep, ok := e.selectPrunable(op.Region, op.Input)
	if !ok {
		return nil, false, nil
	}
	in, err := e.prunedScanChild(pc, scan, sp, keep)
	if err != nil {
		return nil, true, err
	}
	meta, err := e.resolveSelectMeta(op, sp)
	if err != nil {
		return nil, true, err
	}
	out, err := Select(e.cfg, in, meta, op.Region)
	return out, true, err
}

// fusedChainSource materializes a fused chain's source. When the innermost
// chain operator is a SELECT that trySelectPruned could prune, the source
// loads pruned; pruned=true tells the caller the opportunity was realized
// (its scan span carries skipped= accounting) so the prunable= observation
// is skipped.
func (e *evaluator) fusedChainSource(cur Node, chain []Node, sp *obs.Span) (*gdm.Dataset, bool, error) {
	if inner, ok := chain[len(chain)-1].(*SelectOp); ok {
		if pc, scan, keep, ok := e.selectPrunable(inner.Region, cur); ok {
			src, err := e.prunedScanChild(pc, scan, sp, keep)
			return src, true, err
		}
	}
	src, err := e.evalChild(cur, sp)
	return src, false, err
}

// tryMapPruned handles MAP whose experiment input is a Scan on a pruning
// catalog: the reference materializes first (cached like any subplan), and
// the experiment scan skips every partition overlapping no reference extent.
// The two inputs evaluate sequentially here even under the stream backend —
// the experiment's keep function needs the materialized reference.
func (e *evaluator) tryMapPruned(op *MapOp, sp *obs.Span) (*gdm.Dataset, bool, error) {
	pc, ok := e.pruner()
	scan, isScan := op.Exp.(*Scan)
	if !ok || !isScan {
		return nil, false, nil
	}
	var lsp, rsp *obs.Span
	if sp != nil {
		// Both child spans attach upfront so the profile's child order is the
		// plan order, matching evalPair.
		lsp, rsp = newSpan(op.Ref, e.cfg), newSpan(op.Exp, e.cfg)
		sp.AddChild(lsp)
		sp.AddChild(rsp)
	}
	ref, err := e.eval(op.Ref, lsp)
	if err != nil {
		return nil, true, err
	}
	exp, err := e.prunedScan(pc, scan, rsp, mapKeep(chromExtents(ref)))
	if err != nil {
		return nil, true, err
	}
	out, err := Map(e.cfg, ref, exp, op.Args)
	return out, true, err
}

// tryJoinPruned handles JOIN with at least one Scan input on a pruning
// catalog. A lone Scan side prunes against the materialized other side's
// extents. When both sides are Scans, the left prunes against the right's
// manifest stats (no region data read at all), then the right prunes against
// the materialized — already pruned — left: a left partition removed by the
// stats could pair with no right region anyway, so the narrowed extents
// cannot over-prune the right.
func (e *evaluator) tryJoinPruned(op *JoinOp, sp *obs.Span) (*gdm.Dataset, bool, error) {
	pc, ok := e.pruner()
	lscan, lok := op.Left.(*Scan)
	rscan, rok := op.Right.(*Scan)
	if !ok || !lok && !rok {
		return nil, false, nil
	}
	pred := op.Args.Pred
	var lsp, rsp *obs.Span
	if sp != nil {
		lsp, rsp = newSpan(op.Left, e.cfg), newSpan(op.Right, e.cfg)
		sp.AddChild(lsp)
		sp.AddChild(rsp)
	}
	var l, r *gdm.Dataset
	var err error
	if !rok {
		if r, err = e.eval(op.Right, rsp); err == nil {
			l, err = e.prunedScan(pc, lscan, lsp, joinKeep(chromExtents(r), pred))
		}
	} else {
		st, ok := (*catalog.DatasetStats)(nil), false
		if lok {
			st, ok = pc.Stats(rscan.Dataset)
		}
		if ok {
			l, err = e.prunedScan(pc, lscan, lsp, joinKeep(statsExtents(st), pred))
		} else {
			l, err = e.eval(op.Left, lsp)
		}
		if err == nil {
			r, err = e.prunedScan(pc, rscan, rsp, joinKeep(chromExtents(l), pred))
		}
	}
	if err != nil {
		return nil, true, err
	}
	out, err := Join(e.cfg, l, r, op.Args)
	return out, true, err
}

func satAdd(a, b int64) int64 {
	if a > 0 && b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}

func satSub(a, b int64) int64 {
	if a < 0 && b > 0 && a < math.MinInt64+b {
		return math.MinInt64
	}
	return a - b
}
