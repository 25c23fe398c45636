package formats

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/gdm"
)

func testDataset(t *testing.T) *gdm.Dataset {
	t.Helper()
	schema := gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
	)
	ds := gdm.NewDataset("PEAKS", schema)
	s1 := gdm.NewSample("sample1")
	s1.Meta.Add("antibody", "CTCF")
	s1.Meta.Add("cell", "HeLa-S3")
	s1.AddRegion(gdm.NewRegion("chr1", 100, 200, gdm.StrandPlus, gdm.Float(0.001), gdm.Str("p1")))
	s1.AddRegion(gdm.NewRegion("chr2", 50, 99, gdm.StrandMinus, gdm.Float(0.2), gdm.Null()))
	s1.SortRegions()
	s2 := gdm.NewSample("sample2")
	s2.Meta.Add("cell", "K562")
	s2.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandNone, gdm.Null(), gdm.Str("q")))
	if err := ds.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := ds.Add(s2); err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetsEqual(t *testing.T, a, b *gdm.Dataset) {
	t.Helper()
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("schemas differ: %s vs %s", a.Schema, b.Schema)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa.ID != sb.ID {
			t.Fatalf("sample %d ID: %q vs %q", i, sa.ID, sb.ID)
		}
		pa, pb := sa.Meta.Pairs(), sb.Meta.Pairs()
		if len(pa) != len(pb) {
			t.Fatalf("sample %s meta: %v vs %v", sa.ID, pa, pb)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("sample %s meta pair %d: %v vs %v", sa.ID, j, pa[j], pb[j])
			}
		}
		if len(sa.Regions) != len(sb.Regions) {
			t.Fatalf("sample %s regions: %d vs %d", sa.ID, len(sa.Regions), len(sb.Regions))
		}
		for j := range sa.Regions {
			if sa.Regions[j].String() != sb.Regions[j].String() {
				t.Fatalf("sample %s region %d: %q vs %q", sa.ID, j, sa.Regions[j], sb.Regions[j])
			}
		}
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "hits", Type: gdm.KindInt},
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "ok", Type: gdm.KindBool},
	)
	var buf bytes.Buffer
	if err := WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchema(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip = %s, want %s", got, s)
	}
}

func TestReadSchemaErrors(t *testing.T) {
	if _, err := ReadSchema(strings.NewReader("lonelyname\n")); err == nil {
		t.Error("single token accepted")
	}
	if _, err := ReadSchema(strings.NewReader("x\tquux\n")); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := ReadSchema(strings.NewReader("chr\tstring\n")); err == nil {
		t.Error("reserved name accepted")
	}
}

func TestRegionsRoundTrip(t *testing.T) {
	ds := testDataset(t)
	var buf bytes.Buffer
	if err := WriteRegions(&buf, ds.Samples[0]); err != nil {
		t.Fatal(err)
	}
	s := gdm.NewSample("copy")
	if err := ReadRegions(&buf, ds.Schema, s); err != nil {
		t.Fatal(err)
	}
	if len(s.Regions) != len(ds.Samples[0].Regions) {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	for i := range s.Regions {
		if s.Regions[i].String() != ds.Samples[0].Regions[i].String() {
			t.Errorf("region %d: %q vs %q", i, s.Regions[i], ds.Samples[0].Regions[i])
		}
	}
}

func TestReadRegionsErrors(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "v", Type: gdm.KindFloat})
	bad := []string{
		"chr1\t0\t10",               // missing value column
		"chr1\t0\t10\t+\t1\textra",  // too many
		"chr1\tx\t10\t+\t1",         // bad start
		"chr1\t0\tx\t+\t1",          // bad stop
		"chr1\t0\t10\t%\t1",         // bad strand
		"chr1\t0\t10\t+\tnotafloat", // bad value
	}
	for _, text := range bad {
		s := gdm.NewSample("x")
		if err := ReadRegions(strings.NewReader(text), schema, s); err == nil {
			t.Errorf("ReadRegions(%q) succeeded", text)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	md := gdm.NewMetadata()
	md.Add("cell", "HeLa")
	md.Add("cell", "K562")
	md.Add("type", "ChipSeq")
	var buf bytes.Buffer
	if err := WriteMeta(&buf, md); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := md.Pairs(), got.Pairs()
	if len(pa) != len(pb) {
		t.Fatalf("pairs = %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("pair %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	if _, err := ReadMeta(strings.NewReader("no-tab-here\n")); err == nil {
		t.Error("meta line without tab accepted")
	}
	// Values may contain further tabs: only the first splits.
	got2, err := ReadMeta(strings.NewReader("note\tvalue with\ttab\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.First("note") != "value with\ttab" {
		t.Errorf("tabbed value = %q", got2.First("note"))
	}
}

func TestDatasetDirRoundTrip(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "PEAKS" {
		t.Errorf("name = %q", got.Name)
	}
	datasetsEqual(t, ds, got)
}

func TestReadDatasetMissing(t *testing.T) {
	if _, err := ReadDataset(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dataset read succeeded")
	}
}

// wireTrickyDataset holds every value kind, the strings the text layout
// cannot carry exactly, and metadata and sample IDs with tabs and newlines.
func wireTrickyDataset() *gdm.Dataset {
	ds := gdm.NewDataset("TRICKY\tname", gdm.MustSchema(
		gdm.Field{Name: "hits", Type: gdm.KindInt},
		gdm.Field{Name: "p", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "ok", Type: gdm.KindBool},
	))
	s := gdm.NewSample("id\twith\ntabs")
	s.Meta.Add("note", "a\tb")
	s.Meta.Add("note", "line1\nline2")
	s.Meta.Add("key\twith\ttabs", "NULL")
	s.Meta.Add("empty", "")
	for i, str := range []string{".", "NULL", "null", "", "a\tb", "a\nb"} {
		s.AddRegion(gdm.NewRegion("chr1", int64(10*i), int64(10*i+5), gdm.StrandPlus,
			gdm.Int(int64(i)-3), gdm.Float(float64(i)/7), gdm.Str(str), gdm.Bool(i%2 == 0)))
	}
	s.AddRegion(gdm.NewRegion("chrX", 0, 1, gdm.StrandMinus, gdm.Null(), gdm.Null(), gdm.Null(), gdm.Null()))
	ds.MustAdd(s)
	ds.MustAdd(gdm.NewSample("no regions"))
	return ds
}

// valuesIdentical fails unless every region value of got equals want's kind
// for kind — stricter than datasetsEqual, which compares rendered text.
func valuesIdentical(t *testing.T, want, got *gdm.Dataset) {
	t.Helper()
	for i, ws := range want.Samples {
		gs := got.Samples[i]
		for j := range ws.Regions {
			for k, wv := range ws.Regions[j].Values {
				gv := gs.Regions[j].Values[k]
				if gv.Kind() != wv.Kind() || !gdm.Equal(gv, wv) || gv.Str() != wv.Str() {
					t.Fatalf("sample %q region %d value %d: %s %q, want %s %q",
						ws.ID, j, k, gv.Kind(), gv, wv.Kind(), wv)
				}
			}
		}
	}
}

func TestEncodeDecodeDataset(t *testing.T) {
	for _, ds := range []*gdm.Dataset{testDataset(t), wireTrickyDataset()} {
		var buf bytes.Buffer
		if err := EncodeDataset(&buf, ds); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDataset(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != ds.Name {
			t.Errorf("name = %q", got.Name)
		}
		datasetsEqual(t, ds, got)
		valuesIdentical(t, ds, got)
	}
}

// TestEncodeGroupsInterleavedChromosomes pins the .gdmc grouping rule on the
// wire: regions group by chromosome in order of first appearance, keeping
// their order within a chromosome.
func TestEncodeGroupsInterleavedChromosomes(t *testing.T) {
	ds := gdm.NewDataset("MIXED", nil)
	s := gdm.NewSample("s")
	for _, r := range []gdm.Region{
		gdm.NewRegion("chr2", 500, 600, gdm.StrandNone),
		gdm.NewRegion("chr1", 300, 400, gdm.StrandNone),
		gdm.NewRegion("chr2", 100, 200, gdm.StrandNone),
		gdm.NewRegion("chr1", 100, 200, gdm.StrandNone),
	} {
		s.AddRegion(r)
	}
	ds.MustAdd(s)
	var buf bytes.Buffer
	if err := EncodeDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chr2:500-600", "chr2:100-200", "chr1:300-400", "chr1:100-200"}
	if len(got.Samples[0].Regions) != len(want) {
		t.Fatalf("regions = %v, want %v", got.Samples[0].Regions, want)
	}
	for i, r := range got.Samples[0].Regions {
		if have := fmt.Sprintf("%s:%d-%d", r.Chrom, r.Start, r.Stop); have != want[i] {
			t.Errorf("region %d = %s, want %s (all: %v)", i, have, want[i], got.Samples[0].Regions)
		}
	}
}

func TestEncodeDecodeEmptyDataset(t *testing.T) {
	ds := gdm.NewDataset("EMPTY", nil)
	var buf bytes.Buffer
	if err := EncodeDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "EMPTY" || len(got.Samples) != 0 || got.Schema.Len() != 0 {
		t.Errorf("got %s", got)
	}
}

// TestDecodeDatasetErrors: streams that are not the binary framing — the
// retired text stream among them — fail with a typed error.
func TestDecodeDatasetErrors(t *testing.T) {
	var good bytes.Buffer
	if err := EncodeDataset(&good, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	meta := func(pairs ...[2]string) []byte {
		return wireStream(wireHeader("X", nil), appendUint32(nil, 1), wireSample("s", pairs, emptyImage(t)))
	}
	bad := []struct {
		data   []byte
		detail string
	}{
		{nil, "magic needs 6 bytes"},
		{[]byte("GDMW"), "magic needs 6 bytes"},
		{append([]byte("GDMX01"), good.Bytes()[6:]...), "bad magic"},
		{[]byte("GDMv1\tx\t0\nSCHEMA\t0\nGDMSUM\tcrc32c:00000000\n"), "bad magic"},
		{wireHeader("X", nil), "sample count needs 4 bytes"},
		{wireStream(wireHeader("X", []byte{9}), appendUint32(nil, 0)), "kind tag 9"},
		{wireStream(wireHeader("X", nil), appendUint32(nil, 1), wireSample("", nil, emptyImage(t))), "empty ID"},
		{meta([2]string{"b", "1"}, [2]string{"a", "1"}), "out of order"},
		{meta([2]string{"a", "1"}, [2]string{"a", "1"}), "out of order"},
		{wireStream(wireHeader("X", []byte{byte(gdm.KindInt)}), appendUint32(nil, 1), wireSample("s", nil, emptyImage(t))),
			"schema has 1"},
	}
	for _, c := range bad {
		_, err := DecodeDataset(bytes.NewReader(c.data))
		var ie *IntegrityError
		if !errors.As(err, &ie) || !strings.Contains(ie.Detail, c.detail) {
			t.Errorf("DecodeDataset(%q) = %v, want an *IntegrityError naming %q", c.data, err, c.detail)
		}
	}
}

// wireHeader is a stream's magic, name and schema (fields f0, f1, ... of the
// given kind bytes), ready for a sample count.
func wireHeader(name string, kinds []byte) []byte {
	b := appendWireString(append([]byte(nil), wireMagic...), name)
	b = appendUint32(b, uint32(len(kinds)))
	for i, k := range kinds {
		b = append(appendWireString(b, fmt.Sprintf("f%d", i)), k)
	}
	return b
}

// wireSample is one framed sample record around a regions image.
func wireSample(id string, pairs [][2]string, img []byte) []byte {
	b := appendUint32(appendWireString(nil, id), uint32(len(pairs)))
	for _, p := range pairs {
		b = appendWireString(appendWireString(b, p[0]), p[1])
	}
	return append(appendUint64(b, uint64(len(img))), img...)
}

// wireStream joins sections and appends a valid trailer, so a test reaches
// the structural checks behind the checksum.
func wireStream(sections ...[]byte) []byte {
	var b []byte
	for _, s := range sections {
		b = append(b, s...)
	}
	return appendUint32(b, crc32.Checksum(b, castagnoli))
}

// emptyImage is the .gdmc image of a region-free sample with no attributes.
func emptyImage(t *testing.T) []byte {
	t.Helper()
	img, err := encodeColumnarSample(gdm.NewSample("s"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
