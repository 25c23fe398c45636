package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// burn does enough heap-allocating work that the runtime counters must move.
// The buffers are parked in a package sink so they escape to the heap.
func burn() int {
	total := 0
	for i := 0; i < 200; i++ {
		buf := make([]byte, 4096)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		for _, b := range buf {
			total += int(b)
		}
		burnBufs[i%len(burnBufs)] = buf
	}
	return total
}

var (
	burnSink int
	burnBufs [8][]byte
)

func TestReadResDeltas(t *testing.T) {
	base := ReadRes()
	for i := 0; i < 50; i++ {
		burnSink = burn()
	}
	d := ReadRes().Sub(base)
	if d.AllocObjs <= 0 {
		t.Errorf("AllocObjs delta = %d, want > 0", d.AllocObjs)
	}
	// 50 iterations × 200 × 4KiB ≈ 40MiB allocated; demand a loose floor.
	if d.AllocBytes < 1<<20 {
		t.Errorf("AllocBytes delta = %d, want >= 1MiB", d.AllocBytes)
	}
	if d.CPUNS < 0 {
		t.Errorf("CPUNS delta = %d, want >= 0", d.CPUNS)
	}
}

func TestResUsageSubClamps(t *testing.T) {
	a := ResUsage{CPUNS: 5, AllocObjs: 10, AllocBytes: 100}
	b := ResUsage{CPUNS: 10, AllocObjs: 3, AllocBytes: 200}
	d := a.Sub(b)
	if d.CPUNS != 0 || d.AllocObjs != 7 || d.AllocBytes != 0 {
		t.Errorf("Sub clamped = %+v, want {0 7 0}", d)
	}
}

func TestSpanResourceAttribution(t *testing.T) {
	sp := NewSpan("SELECT")
	sp.StartRes()
	burnSink = burn()
	sp.FinishRes()
	r := sp.Res()
	if r.AllocObjs <= 0 || r.AllocBytes <= 0 {
		t.Errorf("attributed allocations = %+v, want > 0", r)
	}

	// An unarmed span is left untouched by FinishRes.
	cold := NewSpan("SCAN")
	cold.FinishRes()
	if got := cold.Res(); got != (ResUsage{}) {
		t.Errorf("unarmed span attributed %+v, want zero", got)
	}
}

func TestSpanSelfRes(t *testing.T) {
	root := &Span{Op: "MAP", CPUNS: 100, AllocObjs: 50, AllocBytes: 1000}
	root.Children = []*Span{
		{Op: "SCAN", CPUNS: 30, AllocObjs: 10, AllocBytes: 300},
		{Op: "SCAN", CPUNS: 20, AllocObjs: 45, AllocBytes: 900},
	}
	self := root.SelfRes()
	// Children overlap (concurrent inputs) can exceed the parent's window on
	// some components; each clamps independently.
	want := ResUsage{CPUNS: 50, AllocObjs: 0, AllocBytes: 0}
	if self != want {
		t.Errorf("SelfRes = %+v, want %+v", self, want)
	}
}

func TestZeroDurationsClearsResources(t *testing.T) {
	sp := &Span{Op: "SELECT", DurationNS: 7, CPUNS: 5, AllocObjs: 3, AllocBytes: 11}
	sp.Children = []*Span{{Op: "SCAN", CPUNS: 2}}
	sp.ZeroDurations()
	if sp.Res() != (ResUsage{}) || sp.Children[0].Res() != (ResUsage{}) {
		t.Errorf("ZeroDurations left resources: %+v / %+v", sp.Res(), sp.Children[0].Res())
	}
	if strings.Contains(sp.Render(), "cpu=") {
		t.Errorf("zeroed render still shows cpu=: %q", sp.Render())
	}
}

func TestRenderShowsResources(t *testing.T) {
	sp := &Span{Op: "MAP", Mode: "serial", CPUNS: 2_500_000, AllocObjs: 1234, AllocBytes: 5 << 20}
	got := sp.Render()
	if !strings.Contains(got, "cpu=2.5ms") {
		t.Errorf("render missing cpu: %q", got)
	}
	if !strings.Contains(got, "allocs=1234/5.0MiB") {
		t.Errorf("render missing allocs: %q", got)
	}
}

func TestSizeString(t *testing.T) {
	cases := map[int64]string{
		512:        "512B",
		2048:       "2.0KiB",
		3 << 20:    "3.0MiB",
		1 << 30:    "1.0GiB",
		1536 << 20: "1.5GiB",
		1234567890: "1.1GiB",
	}
	for n, want := range cases {
		if got := sizeString(n); got != want {
			t.Errorf("sizeString(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestReadResGCDeltas(t *testing.T) {
	base := ReadRes()
	burnSink = burn()
	runtime.GC()
	d := ReadRes().Sub(base)
	if d.GCCycles < 1 {
		t.Errorf("GCCycles delta = %d across a forced GC, want >= 1", d.GCCycles)
	}
	if d.GCCPUNS <= 0 {
		t.Errorf("GCCPUNS delta = %d across a forced GC, want > 0", d.GCCPUNS)
	}
}

// TestSpanGCRendering: GC attribution renders on the root span only, marked
// approximate, and is omitted from span JSON when unrecorded, so profiles
// from nodes that do not record it decode and render as before.
func TestSpanGCRendering(t *testing.T) {
	root := &Span{Op: "MAP", Mode: "serial", GCCPUNS: 2_500_000, GCCycles: 3}
	root.Children = []*Span{{Op: "SCAN", Mode: "serial", GCCPUNS: 1_000_000, GCCycles: 1}}
	lines := strings.Split(root.Render(), "\n")
	if !strings.Contains(lines[0], " gc=~2.5ms/3cycles") {
		t.Errorf("root line %q lacks the GC attribution", lines[0])
	}
	if strings.Contains(lines[1], "gc=") {
		t.Errorf("child line %q renders GC attribution", lines[1])
	}
	js, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"gc_cpu_ns":2500000,"gc_cycles":3`) {
		t.Errorf("span JSON lacks the GC fields: %s", js)
	}
	var old Span
	if err := json.Unmarshal([]byte(`{"op":"MAP","duration_ns":5,"samples_in":0,"regions_in":0,"samples_out":1,"regions_out":2}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.GCCPUNS != 0 || old.GCCycles != 0 || strings.Contains(old.Render(), "gc=") {
		t.Errorf("older span JSON decoded with GC attribution: %s", old.Render())
	}
	if js, _ := json.Marshal(&old); strings.Contains(string(js), "gc_") {
		t.Errorf("unrecorded GC fields marshaled: %s", js)
	}
	root.ZeroDurations()
	if root.GCCPUNS != 0 || root.Children[0].GCCycles != 0 {
		t.Errorf("ZeroDurations kept GC attribution: %s", root.Render())
	}
}
