package difftest

import (
	"fmt"
	"strings"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
)

// TestOwnershipAxis: every case runs the shared-results configurations, a
// catalog write is a divergence naming the configuration that made it (and
// only that one), and an engine ownership error is a divergence even when
// the oracle errors too.
func TestOwnershipAxis(t *testing.T) {
	cat := BuildCatalog(1)
	res := RunCase(3, Options{Catalog: cat})
	if res.OracleErr != "" || res.Diverged() {
		t.Fatalf("seed 3: oracle err %q, results %+v", res.OracleErr, res.Results)
	}
	shared := 0
	for _, r := range res.Results {
		if strings.HasPrefix(r.Config, "materialize-all/") {
			shared++
		}
	}
	if shared != len(Matrix()) {
		t.Fatalf("%d materialize-all configurations ran, want %d", shared, len(Matrix()))
	}

	digests := digestCatalog(cat)
	if msg := ownershipDiff(nil, digests, cat); msg != "" {
		t.Fatalf("untouched catalog reported: %s", msg)
	}
	cat["PEAKS"].Samples[0].Meta.Set("cell", "written")
	if msg := ownershipDiff(nil, digests, cat); !strings.Contains(msg, "PEAKS") || strings.Contains(msg, "ENCODE") {
		t.Fatalf("catalog write reported as %q, want PEAKS named", msg)
	}
	if msg := ownershipDiff(nil, digests, cat); msg != "" {
		t.Fatalf("a write is blamed on the next configuration too: %s", msg)
	}
	err := fmt.Errorf("gmql: evaluating V1: %w: catalog dataset ENCODE changed", engine.ErrOwnership)
	if msg := ownershipDiff(err, digests, cat); msg != err.Error() {
		t.Fatalf("engine ownership error reported as %q", msg)
	}
}

// TestMaterializeAllText: the shared-results script materializes every
// variable once more, the final one included — so OUT and ALL_<final> are
// two published views sharing the samples of one cached dataset.
func TestMaterializeAllText(t *testing.T) {
	s := Generate(5)
	text := s.Text()
	prog, err := gmql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	all, err := gmql.Parse(materializeAllText(text, prog))
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Materialized) != len(prog.Assignments)+1 {
		t.Fatalf("%d targets for %d variables", len(all.Materialized), len(prog.Assignments))
	}
	rs, err := (&gmql.Runner{Config: Matrix()[0].Cfg, Catalog: BuildCatalog(1)}).Materialize(all)
	if err != nil {
		t.Fatal(err)
	}
	var out, again *gdm.Dataset
	for _, r := range rs {
		switch r.Target {
		case "OUT":
			out = r.Dataset
		case materializeAllPrefix + s.Final:
			again = r.Dataset
		}
	}
	if out == nil || again == nil || len(out.Samples) == 0 || len(out.Samples) != len(again.Samples) {
		t.Fatalf("targets OUT and %s%s: %v, %v", materializeAllPrefix, s.Final, out, again)
	}
	for i := range out.Samples {
		if out.Samples[i] != again.Samples[i] {
			t.Fatalf("sample %d is copied between the two targets, not shared", i)
		}
	}
}
