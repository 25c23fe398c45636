// BenchmarkHeadline is the Section 2 headline query on all three backends,
// untraced and traced, at the smallest sweep size so CI can afford it. The
// benchmark trajectory (BENCH_PR*.json: ops, ns/op, allocs per backend plus
// the tracing overhead) is written by cmd/gmqlbench, which runs the same
// rows.
package genogo_test

import (
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gmql"
)

var headlineModes = []struct {
	Name string
	Mode engine.Mode
}{
	{"serial", engine.ModeSerial},
	{"batch", engine.ModeBatch},
	{"stream", engine.ModeStream},
}

func runHeadline(b *testing.B, cfg engine.Config, profiled bool) {
	f := load()
	cat := engine.MapCatalog{"ENCODE": f.encode[38], "ANNOTATIONS": f.annotations}
	prog, err := gmql.Parse(headlineScript)
	if err != nil {
		b.Fatal(err)
	}
	runner := &gmql.Runner{Config: cfg, Catalog: cat}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if profiled {
			if _, _, err := runner.MaterializeProfiled(prog); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := runner.Materialize(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	for _, m := range headlineModes {
		cfg := engine.Config{Mode: m.Mode, MetaFirst: true}
		b.Run("engine="+m.Name, func(b *testing.B) { runHeadline(b, cfg, false) })
		b.Run("engine="+m.Name+"/profiled", func(b *testing.B) { runHeadline(b, cfg, true) })
	}
}
