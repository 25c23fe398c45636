package engine

import (
	"fmt"

	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// MapArgs parametrizes MAP.
type MapArgs struct {
	// Aggs lists the aggregates computed over the experiment regions that
	// intersect each reference region. A plain COUNT ("count AS COUNT") is
	// the canonical use (the paper's headline query).
	Aggs []expr.Aggregate
	// JoinBy restricts the (reference, experiment) sample pairs to those
	// agreeing on these metadata attributes. Empty pairs every reference
	// sample with every experiment sample, the GMQL default.
	JoinBy []string
}

// Map implements GMQL MAP, the operation Fig. 4 of the paper builds genome
// spaces from: for every (reference sample, experiment sample) pair it emits
// one output sample holding all the reference regions, each extended with
// aggregates over the experiment regions intersecting it.
//
// The kernel is strategy-dependent (the sweep-vs-tree ablation):
// with Config.BinWidth <= 0 each chromosome is processed with one sorted
// merge sweep; with BinWidth > 0 reference regions are split into genometric
// bins and probe a static interval tree built over the experiment's
// chromosome, the binned strategy of the distributed GMQL implementations.
func Map(cfg Config, ref, exp *gdm.Dataset, args MapArgs) (*gdm.Dataset, error) {
	aggs := args.Aggs
	if len(aggs) == 0 {
		aggs = []expr.Aggregate{{Output: "count", Func: expr.AggCount}}
	}
	aggIdx := make([]int, len(aggs))
	fields := ref.Schema.Fields()
	for i, a := range aggs {
		in := gdm.KindNull
		if a.Func.NeedsAttr() {
			j, ok := exp.Schema.Index(a.Attr)
			if !ok {
				return nil, fmt.Errorf("map: unknown experiment attribute %q in schema %s", a.Attr, exp.Schema)
			}
			aggIdx[i] = j
			in = exp.Schema.Field(j).Type
		} else {
			aggIdx[i] = -1
		}
		fields = append(fields, gdm.Field{Name: a.Output, Type: a.Func.ResultKind(in)})
	}
	schema, err := gdm.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("map: %w", err)
	}

	pairs := pairings(ref, exp, args.JoinBy)
	out := gdm.NewDataset(ref.Name, schema)
	outSamples := make([]*gdm.Sample, len(pairs))

	// pairState holds one pair's accumulators, one column per aggregate.
	// Different chromosomes of one pair touch disjoint reference-region
	// rows, so chromosome tasks of the same pair can run concurrently
	// without locks.
	type pairState struct {
		r, e *gdm.Sample
		cols []mapColumn
	}
	states := make([]*pairState, len(pairs))
	type task struct {
		pair int
		cs   chromSpan
	}
	var tasks []task
	for pi, p := range pairs {
		st := &pairState{r: p[0], e: p[1], cols: make([]mapColumn, len(aggs))}
		for ai := range aggs {
			st.cols[ai] = newMapColumn(aggs[ai].Func, len(p[0].Regions))
		}
		states[pi] = st
		for _, cs := range chromSpans(p[0]) {
			tasks = append(tasks, task{pair: pi, cs: cs})
		}
	}

	// Phase 1: accumulate, parallel over (pair, chromosome) tasks — both
	// the sample axis and the genomic axis, the two parallelism dimensions
	// of the distributed GMQL implementations.
	cfg.forEach(len(tasks), func(ti int) {
		tk := tasks[ti]
		st := states[tk.pair]
		r, e := st.r, st.e
		var tick int
		feed := func(refIdx, expIdx int32) {
			cfg.tick(&tick)
			rr := &r.Regions[refIdx]
			er := &e.Regions[expIdx]
			if !rr.Strand.Compatible(er.Strand) {
				return
			}
			for ai := range st.cols {
				// Only COUNT-like columns count, and only they take no
				// attribute, so every accumulator column has aggIdx >= 0.
				if col := &st.cols[ai]; col.counts != nil {
					col.counts[refIdx]++
				} else {
					col.accs[refIdx].Add(er.Values[aggIdx[ai]])
				}
			}
		}
		cs := tk.cs
		elo, ehi := e.ChromRange(cs.chrom)
		if elo == ehi {
			return
		}
		if cfg.BinWidth > 0 {
			tree := intervals.BuildTree(chromEntries(e, elo, ehi))
			for _, bin := range binSpans(r, cs, cfg.BinWidth) {
				for ri := bin.lo; ri < bin.hi; ri++ {
					reg := &r.Regions[ri]
					refIdx := int32(ri)
					tree.Overlapping(reg.Start, reg.Stop, func(en intervals.Entry) bool {
						feed(refIdx, en.Payload)
						return true
					})
				}
			}
		} else {
			intervals.SweepOverlaps(
				chromEntries(r, cs.lo, cs.hi), chromEntries(e, elo, ehi),
				func(l, x intervals.Entry) bool {
					feed(l.Payload, x.Payload)
					return true
				})
		}
	})

	// Phase 2: finalize output samples, parallel over pairs. Each sample's
	// values live in one slab; every region's row is capacity-capped, so
	// appending to one region's Values reallocates instead of overwriting
	// its neighbour's row.
	w, base := schema.Len(), ref.Schema.Len()
	cfg.forEach(len(pairs), func(pi int) {
		st := states[pi]
		ns := &gdm.Sample{
			ID:      gdm.DeriveID("map", st.r.ID, st.e.ID),
			Meta:    mergeSampleMeta(st.r, st.e),
			Regions: make([]gdm.Region, len(st.r.Regions)),
		}
		slab := make([]gdm.Value, len(st.r.Regions)*w)
		for ri := range st.r.Regions {
			src := st.r.Regions[ri]
			vals := slab[ri*w : (ri+1)*w : (ri+1)*w]
			copy(vals[:base], src.Values)
			for ai := range st.cols {
				vals[base+ai] = st.cols[ai].result(ri)
			}
			src.Values = vals
			ns.Regions[ri] = src
		}
		outSamples[pi] = ns
	})
	out.Samples = outSamples
	return out, nil
}

// mapColumn accumulates one aggregate for every reference region of a MAP
// pair. COUNT-like functions, the headline query's, keep a plain counter per
// region; every other function keeps a flat slice of value accumulators.
// Either way the column is one allocation per pair, not one per region.
type mapColumn struct {
	counts []int64
	accs   []expr.Accumulator
}

func newMapColumn(fn expr.AggFunc, regions int) mapColumn {
	if !fn.NeedsAttr() {
		return mapColumn{counts: make([]int64, regions)}
	}
	accs := make([]expr.Accumulator, regions)
	for i := range accs {
		accs[i] = expr.MakeAccumulator(fn)
	}
	return mapColumn{accs: accs}
}

// result is the aggregate value of reference region ri.
func (c *mapColumn) result(ri int) gdm.Value {
	if c.counts != nil {
		return gdm.Int(c.counts[ri])
	}
	return c.accs[ri].Result()
}
