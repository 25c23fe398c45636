package obs

import (
	"runtime/metrics"
	"time"
)

// Resource attribution: where did a query's CPU time and allocations go?
//
// Wall time alone cannot answer the questions a perf PR raises — an operator
// can be slow because it burns CPU, because it allocates furiously, or
// because it waits on something. ResUsage snapshots the runtime's own
// counters (runtime/metrics, ~500ns a read) so spans can record the delta
// observed across an operator's execution window:
//
//   - CPU time of user Go code (/cpu/classes/user:cpu-seconds),
//   - heap allocations, objects and bytes (/gc/heap/allocs:*),
//   - CPU time of the garbage collector (/cpu/classes/gc/total:cpu-seconds)
//     and the GC cycles completed (/gc/cycles/total:gc-cycles).
//
// The counters are process-wide, which fixes the attribution semantics:
// deltas are exact when operators execute one at a time (the serial and
// batch backends, and any otherwise idle process) and are an upper bound
// when concurrent work overlaps the window (the stream backend's concurrent
// binary-operator inputs, or other queries on a busy server). The GC
// counters are approximate even then: a cycle collects whatever garbage the
// whole process left, and its CPU lands in the window it happens to finish
// in. That is why EXPLAIN ANALYZE shows them on the root span only. Self
// values (total minus children) clamp at zero, like SelfNS.

// resNames are the runtime/metrics samples attribution reads, in ResUsage
// field order.
var resNames = [...]string{
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// ResUsage is a point-in-time reading of the process-wide resource counters,
// or (via Sub) the delta between two readings.
type ResUsage struct {
	// CPUNS is CPU time spent running user Go code, in nanoseconds.
	CPUNS int64
	// AllocObjs and AllocBytes are cumulative heap allocations.
	AllocObjs  int64
	AllocBytes int64
	// GCCPUNS is CPU time the garbage collector spent (mark assists,
	// background and idle mark workers, pauses), in nanoseconds; GCCycles
	// counts completed GC cycles.
	GCCPUNS  int64
	GCCycles int64
}

// ReadRes samples the process's resource counters.
func ReadRes() ResUsage {
	var s [len(resNames)]metrics.Sample
	for i := range s {
		s[i].Name = resNames[i]
	}
	metrics.Read(s[:])
	return ResUsage{
		CPUNS:      int64(s[0].Value.Float64() * float64(time.Second)),
		AllocObjs:  int64(s[1].Value.Uint64()),
		AllocBytes: int64(s[2].Value.Uint64()),
		GCCPUNS:    int64(s[3].Value.Float64() * float64(time.Second)),
		GCCycles:   int64(s[4].Value.Uint64()),
	}
}

// Sub returns the delta u - base, clamping each component at zero (the CPU
// estimates are not guaranteed monotonic between reads).
func (u ResUsage) Sub(base ResUsage) ResUsage {
	return ResUsage{
		CPUNS:      nonNegative(u.CPUNS - base.CPUNS),
		AllocObjs:  nonNegative(u.AllocObjs - base.AllocObjs),
		AllocBytes: nonNegative(u.AllocBytes - base.AllocBytes),
		GCCPUNS:    nonNegative(u.GCCPUNS - base.GCCPUNS),
		GCCycles:   nonNegative(u.GCCycles - base.GCCycles),
	}
}

func nonNegative(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}
