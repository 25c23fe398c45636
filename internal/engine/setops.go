package engine

import (
	"fmt"

	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// Union implements GMQL UNION: the result contains every sample of both
// operands. The result schema is the left operand's; right-operand regions
// are re-laid-out onto it by attribute name (unmatched attributes become
// null), realizing GDM schema interoperability. Right sample IDs are
// re-derived by UnionID when they would collide with an ID already in the
// result.
func Union(cfg Config, left, right *gdm.Dataset) (*gdm.Dataset, error) {
	schema, mapping := gdm.UnionSchemas(left.Schema, right.Schema)
	out := gdm.NewDataset(left.Name, schema)
	seen := make(map[string]bool, len(left.Samples)+len(right.Samples))
	for _, s := range left.Samples {
		out.Samples = append(out.Samples, s.Clone())
		seen[s.ID] = true
	}
	rightOut := make([]*gdm.Sample, len(right.Samples))
	cfg.forEach(len(right.Samples), func(i int) {
		rightOut[i] = RelayoutSample(schema, mapping, right.Samples[i])
	})
	for _, ns := range rightOut {
		ns.ID = UnionID(seen, ns.ID)
		out.Samples = append(out.Samples, ns)
	}
	return out, nil
}

// RelayoutSample copies src onto a union's result schema: metadata cloned,
// each region's values re-laid out by the gdm.UnionSchemas mapping, with
// unmatched attributes null.
func RelayoutSample(schema *gdm.Schema, mapping []int, src *gdm.Sample) *gdm.Sample {
	ns := &gdm.Sample{ID: src.ID, Meta: src.Meta.Clone(), Regions: make([]gdm.Region, len(src.Regions))}
	for ri := range src.Regions {
		r := src.Regions[ri]
		vals := make([]gdm.Value, schema.Len())
		for vi, srcIdx := range mapping {
			if srcIdx >= 0 {
				vals[vi] = r.Values[srcIdx]
			} else {
				vals[vi] = gdm.Null()
			}
		}
		r.Values = vals
		ns.Regions[ri] = r
	}
	return ns
}

// UnionID is the union's rename rule for an appended sample: its own ID
// when seen does not hold it, otherwise the ID re-derived from it, again
// until the derived ID is unseen as well. The returned ID is marked seen.
// Re-deriving until unseen keeps IDs unique even when one sample reaches a
// result through three or more operands.
func UnionID(seen map[string]bool, id string) string {
	for seen[id] {
		id = gdm.DeriveID("union", id, "right")
	}
	seen[id] = true
	return id
}

// DifferenceArgs parametrizes DIFFERENCE.
type DifferenceArgs struct {
	// JoinBy restricts which right samples count against each left sample:
	// only samples agreeing on these metadata attributes. Empty means all.
	JoinBy []string
	// Exact removes only coordinate-identical regions instead of any
	// overlapping region.
	Exact bool
}

// Difference implements GMQL DIFFERENCE: for every left sample, it removes
// the regions that intersect (or exactly equal, with Exact) at least one
// region of the matching right samples. Left metadata and IDs are preserved.
func Difference(cfg Config, left, right *gdm.Dataset, args DifferenceArgs) (*gdm.Dataset, error) {
	// Partition right samples by join key once.
	rightGroups := make(map[string][]*gdm.Sample)
	for _, s := range right.Samples {
		k := groupKey(s.Meta, args.JoinBy)
		rightGroups[k] = append(rightGroups[k], s)
	}
	out := gdm.NewDataset(left.Name, left.Schema)
	outSamples := make([]*gdm.Sample, len(left.Samples))
	cfg.forEach(len(left.Samples), func(i int) {
		src := left.Samples[i]
		negatives := rightGroups[groupKey(src.Meta, args.JoinBy)]
		drop := make([]bool, len(src.Regions))
		var tick int
		for _, cs := range chromSpans(src) {
			leftEntries := chromEntries(src, cs.lo, cs.hi)
			for _, neg := range negatives {
				nlo, nhi := neg.ChromRange(cs.chrom)
				if nlo == nhi {
					continue
				}
				negEntries := chromEntries(neg, nlo, nhi)
				intervals.SweepOverlaps(leftEntries, negEntries, func(l, r intervals.Entry) bool {
					cfg.tick(&tick)
					lr := &src.Regions[l.Payload]
					rr := &neg.Regions[r.Payload]
					if !lr.Strand.Compatible(rr.Strand) {
						return true
					}
					if args.Exact {
						if lr.Start == rr.Start && lr.Stop == rr.Stop {
							drop[l.Payload] = true
						}
						return true
					}
					drop[l.Payload] = true
					return true
				})
			}
		}
		ns := &gdm.Sample{ID: src.ID, Meta: src.Meta.Clone()}
		for ri := range src.Regions {
			if !drop[ri] {
				ns.Regions = append(ns.Regions, src.Regions[ri])
			}
		}
		outSamples[i] = ns
	})
	out.Samples = outSamples
	return out, nil
}

// pairings enumerates the (left, right) sample pairs that agree on the
// joinBy metadata attributes (every pair when joinBy is empty), in
// deterministic order.
func pairings(left, right *gdm.Dataset, joinBy []string) [][2]*gdm.Sample {
	rightGroups := make(map[string][]*gdm.Sample)
	for _, s := range right.Samples {
		rightGroups[groupKey(s.Meta, joinBy)] = append(rightGroups[groupKey(s.Meta, joinBy)], s)
	}
	var out [][2]*gdm.Sample
	for _, l := range left.Samples {
		for _, r := range rightGroups[groupKey(l.Meta, joinBy)] {
			out = append(out, [2]*gdm.Sample{l, r})
		}
	}
	return out
}

// mergeSampleMeta builds the metadata of a binary-operator result sample:
// left attributes prefixed "left.", right attributes prefixed "right." —
// the provenance tracing the paper calls out ("knowing why resulting
// regions were produced").
func mergeSampleMeta(l, r *gdm.Sample) *gdm.Metadata {
	md := gdm.NewMetadata()
	l.Meta.MergeInto(md, "left")
	r.Meta.MergeInto(md, "right")
	return md
}

// mergeSchemas validates a binary operator's schema merge. Merges are
// checked by the compiler before execution, so a failure here is an engine
// bug — but it surfaces as a query error, failing the query instead of the
// process.
func mergeSchemas(left, right *gdm.Schema, tag string) (gdm.MergedSchema, error) {
	m, err := gdm.MergeSchemas(left, right, tag)
	if err != nil {
		return gdm.MergedSchema{}, fmt.Errorf("engine: schema merge invariant violated: %w", err)
	}
	return m, nil
}
