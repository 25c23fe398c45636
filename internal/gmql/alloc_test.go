package gmql

import (
	"fmt"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
)

// allocCatalog builds a headline-shaped catalog whose region counts scale
// with k at constant density: a promoter track of 40k regions and three
// ChIP-seq samples of 40k peaks each, spread over two chromosomes.
func allocCatalog(k int) engine.MapCatalog {
	ann := gdm.NewDataset("ANNOTATIONS", gdm.MustSchema(gdm.Field{Name: "name", Type: gdm.KindString}))
	proms := gdm.NewSample("proms")
	proms.Meta.Add("annType", "promoter")
	enc := gdm.NewDataset("ENCODE", gdm.MustSchema(gdm.Field{Name: "signal", Type: gdm.KindFloat}))
	var chip []*gdm.Sample
	for i := 0; i < 4; i++ {
		s := gdm.NewSample(fmt.Sprintf("enc%d", i))
		s.Meta.Add("dataType", map[bool]string{true: "ChipSeq", false: "RnaSeq"}[i < 3])
		chip = append(chip, s)
	}
	for i := 0; i < 40*k; i++ {
		chrom := []string{"chr1", "chr2"}[i%2]
		pos := int64(i/2) * 1000
		proms.AddRegion(gdm.NewRegion(chrom, pos, pos+400, gdm.StrandNone, gdm.Str(fmt.Sprintf("P%d", i))))
		for j, s := range chip {
			off := pos + int64(j*150)
			s.AddRegion(gdm.NewRegion(chrom, off, off+100, gdm.StrandNone, gdm.Float(float64(i))))
		}
	}
	proms.SortRegions()
	ann.MustAdd(proms)
	for _, s := range chip {
		s.SortRegions()
		enc.MustAdd(s)
	}
	return engine.MapCatalog{"ANNOTATIONS": ann, "ENCODE": enc}
}

// TestMaterializeMapAllocsFlat pins that the headline query allocates per
// output sample, not per output region: MATERIALIZE of a single MAP target
// must allocate as many objects at 4x the regions per sample as at 1x.
func TestMaterializeMapAllocsFlat(t *testing.T) {
	prog, err := Parse(`
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Mode: engine.ModeSerial, Workers: 1, MetaFirst: true}
	allocs := func(k int) (float64, int) {
		r := &Runner{Config: cfg, Catalog: allocCatalog(k)}
		var regions int
		n := testing.AllocsPerRun(20, func() {
			rs, err := r.Materialize(prog)
			if err != nil {
				t.Fatal(err)
			}
			regions = rs[0].Dataset.NumRegions()
		})
		return n, regions
	}
	a1, r1 := allocs(1)
	a4, r4 := allocs(4)
	t.Logf("1x: %.0f allocs for %d output regions; 4x: %.0f allocs for %d", a1, r1, a4, r4)
	if r4 != 4*r1 || r1 == 0 {
		t.Fatalf("fixture: %d and %d output regions", r1, r4)
	}
	// A handful of objects may follow the data size (slice growth in the
	// overlap sweep); one per added output region may not.
	if grow := a4 - a1; grow > 8 {
		t.Errorf("allocations grow with the region count: %.0f at 1x, %.0f at 4x (+%.0f for %d more output regions)",
			a1, a4, grow, r4-r1)
	}
}
