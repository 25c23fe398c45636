package federation

import (
	"context"
	"fmt"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
)

// mergeLeg builds one leg result: samples named by ids, each with two
// regions whose values follow the schema (score float, name string, extra
// int — whichever the schema has).
func mergeLeg(t *testing.T, name string, schema *gdm.Schema, ids ...string) *gdm.Dataset {
	t.Helper()
	ds := gdm.NewDataset(name, schema)
	for si, id := range ids {
		s := gdm.NewSample(id)
		s.Meta.Add("leg", name)
		for ri := 0; ri < 2; ri++ {
			vals := make([]gdm.Value, schema.Len())
			for vi, f := range schema.Fields() {
				switch f.Type {
				case gdm.KindFloat:
					vals[vi] = gdm.Float(float64(si) + 0.5)
				case gdm.KindString:
					vals[vi] = gdm.Str(fmt.Sprintf("%s.%s.%d", name, id, ri))
				default:
					vals[vi] = gdm.Int(int64(ri))
				}
			}
			s.AddRegion(gdm.NewRegion("chr1", int64(100*ri+si), int64(100*ri+si+10), gdm.StrandNone, vals...))
		}
		if err := ds.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestMergeLegsEquivalence: the adopting N-way merge returns exactly the
// dataset a left fold of engine.Union returns — same name, schema, content
// digest, sample order and IDs — across 1..4 legs with colliding IDs, a
// leg whose schema differs (re-laid out by name, unmatched attributes null)
// and empty legs. The fold runs over clones because mergeLegs adopts its
// inputs.
func TestMergeLegsEquivalence(t *testing.T) {
	base := gdm.MustSchema(
		gdm.Field{Name: "score", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
	)
	other := gdm.MustSchema(
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "extra", Type: gdm.KindInt},
	)
	cases := []struct {
		name string
		legs func(t *testing.T) []*gdm.Dataset
	}{
		{"1-leg", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", base, "s", "t")}
		}},
		{"2-legs-disjoint", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", base, "a1", "a2"), mergeLeg(t, "B", base, "b1")}
		}},
		{"2-legs-colliding", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", base, "s", "a"), mergeLeg(t, "B", base, "s", "b")}
		}},
		{"3-legs-shared-sample", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", base, "s"), mergeLeg(t, "B", base, "s"), mergeLeg(t, "C", base, "s")}
		}},
		{"3-legs-other-schema", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", base, "s"), mergeLeg(t, "B", other, "s", "b"), mergeLeg(t, "C", base, "c")}
		}},
		{"3-legs-empty-first", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", other), mergeLeg(t, "B", base, "s"), mergeLeg(t, "C", base, "s")}
		}},
		{"4-legs-mixed", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{
				mergeLeg(t, "A", base, "s", "a"),
				mergeLeg(t, "B", base),
				mergeLeg(t, "C", other, "s", "a"),
				mergeLeg(t, "D", base, "s", "d"),
			}
		}},
		{"4-legs-all-empty", func(t *testing.T) []*gdm.Dataset {
			return []*gdm.Dataset{mergeLeg(t, "A", base), mergeLeg(t, "B", other), mergeLeg(t, "C", base), mergeLeg(t, "D", base)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legs := tc.legs(t)
			want := legs[0].Clone()
			for _, leg := range legs[1:] {
				u, err := engine.Union(engine.Config{MetaFirst: true}, want, leg.Clone())
				if err != nil {
					t.Fatal(err)
				}
				want = u
			}
			got := mergeLegs(legs)
			if got.Name != want.Name || !got.Schema.Equal(want.Schema) {
				t.Fatalf("merged %s %s, fold %s %s", got.Name, got.Schema, want.Name, want.Schema)
			}
			if g, w := got.ContentDigest(), want.ContentDigest(); g != w {
				t.Errorf("digest %s, fold %s", gdm.ShortDigest(g), gdm.ShortDigest(w))
			}
			if len(got.Samples) != len(want.Samples) {
				t.Fatalf("merged %d samples, fold %d", len(got.Samples), len(want.Samples))
			}
			for i := range got.Samples {
				if got.Samples[i].ID != want.Samples[i].ID {
					t.Errorf("sample %d ID = %q, fold %q", i, got.Samples[i].ID, want.Samples[i].ID)
				}
				if g, w := got.Samples[i].Meta.First("leg"), want.Samples[i].Meta.First("leg"); g != w {
					t.Errorf("sample %d from leg %s, fold %s", i, g, w)
				}
			}
			if err := got.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
	if got := mergeLegs(nil); got != nil {
		t.Errorf("no legs merged to %v, want nil", got)
	}
}

// TestFederatorZeroMembersFails: a federation with no legs — no members, or
// a placement registering no data units — fails loudly instead of
// returning a nil dataset with no error.
func TestFederatorZeroMembersFails(t *testing.T) {
	for _, fed := range []*Federator{{}, {Placement: NewPlacement()}} {
		ds, report, err := fed.Query(context.Background(), chaosScript, "X", 4)
		if err == nil || ds != nil || report != nil {
			t.Errorf("placement %v: Query = (%v, %v, %v), want a no-legs error", fed.Placement != nil, ds, report, err)
		}
		ds, root, report, err := fed.QueryProfiled(context.Background(), chaosScript, "X", 4)
		if err == nil || ds != nil || root != nil || report != nil {
			t.Errorf("placement %v: QueryProfiled = (%v, %v, %v, %v), want a no-legs error", fed.Placement != nil, ds, root, report, err)
		}
	}
}
