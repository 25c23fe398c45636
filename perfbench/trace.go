package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// Span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Spans of one query share Query; Parent is 0
// for a query's root span and for work timed outside the query's latency.
type Span struct {
	Query  int64            `json:"query"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps every span of a traced run in memory; they are written out
// once, when the run ends. Spans arrive from the client goroutine, engine
// workers and in-process HTTP servers, hence the mutex.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span // spans[i].ID == i+1
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(query, parent int64, name string) int64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{Query: query, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes a span, folding counts into it.
func (r *recorder) end(id int64, counts map[string]int64) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.End = now
	if len(counts) > 0 {
		if sp.Counts == nil {
			sp.Counts = make(map[string]int64, len(counts))
		}
		for k, v := range counts {
			sp.Counts[k] += v
		}
	}
}

// byQuery groups a copy of the spans by query.
func (r *recorder) byQuery() map[int64][]Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int64][]Span)
	for _, sp := range r.spans {
		out[sp.Query] = append(out[sp.Query], sp)
	}
	return out
}

// writeFile writes every recorded span as one JSON array.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceCtx is one traced query: the recorder, the query id and the span
// that calls into a layer should hang under. A nil *traceCtx means the
// query is untraced, and every method is then a no-op.
type traceCtx struct {
	rec   *recorder
	query int64
	// cur is the span id callbacks from inside the program (catalog reads,
	// HTTP round trips) attach to.
	cur atomic.Int64
}

// step runs fn inside a span named name under parent.
func (tc *traceCtx) step(parent int64, name string, fn func(id int64) error) error {
	if tc == nil {
		return fn(0)
	}
	id := tc.rec.start(tc.query, parent, name)
	err := fn(id)
	tc.rec.end(id, nil)
	return err
}

// within runs fn with id as the span program callbacks attach to.
func (tc *traceCtx) within(id int64, fn func() error) error {
	if tc == nil {
		return fn()
	}
	prev := tc.cur.Swap(id)
	defer tc.cur.Store(prev)
	return fn()
}

// tracedCatalog is an engine.PrunedCatalog forwarding to formats.DirCatalog,
// timing each read and counting what it returned and skipped.
type tracedCatalog struct {
	inner engine.PrunedCatalog
	tc    *traceCtx
}

func (c *tracedCatalog) Dataset(name string) (*gdm.Dataset, error) {
	id := c.tc.rec.start(c.tc.query, c.tc.cur.Load(), "formats.read")
	ds, err := c.inner.Dataset(name)
	c.tc.rec.end(id, readCounts(ds, catalog.PruneStats{}))
	return ds, err
}

func (c *tracedCatalog) Stats(name string) (*catalog.DatasetStats, bool) {
	return c.inner.Stats(name)
}

func (c *tracedCatalog) DatasetPruned(name string, keep func(chrom string, minStart, maxStop int64) bool) (*gdm.Dataset, catalog.PruneStats, error) {
	id := c.tc.rec.start(c.tc.query, c.tc.cur.Load(), "formats.read")
	ds, st, err := c.inner.DatasetPruned(name, keep)
	c.tc.rec.end(id, readCounts(ds, st))
	return ds, st, err
}

func readCounts(ds *gdm.Dataset, st catalog.PruneStats) map[string]int64 {
	m := map[string]int64{
		"parts_consulted": int64(st.Parts),
		"parts_skipped":   int64(st.SkippedParts),
		"regions_skipped": st.SkippedRegions,
	}
	if ds != nil {
		m["samples"] = int64(len(ds.Samples))
		m["regions"] = int64(ds.NumRegions())
	}
	return m
}

// Headers carrying the benchmark's trace context from the client
// round-tripper to the server middleware.
const (
	headerQuery = "X-Perfbench-Query"
	headerSpan  = "X-Perfbench-Span"
)

// tracedTransport is the http.RoundTripper handed to federation clients
// through federation.WithTransport. While a query is traced it times each
// request by route, from send until the response body is closed.
type tracedTransport struct {
	inner http.RoundTripper
	// live is the traced query in flight; nil while queries run untraced.
	live *atomic.Pointer[traceCtx]
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc := t.live.Load()
	if tc == nil {
		return t.inner.RoundTrip(req)
	}
	id := tc.rec.start(tc.query, tc.cur.Load(), routeSpan(req))
	req = req.Clone(req.Context())
	req.Header.Set(headerQuery, strconv.FormatInt(tc.query, 10))
	req.Header.Set(headerSpan, strconv.FormatInt(id, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		tc.rec.end(id, map[string]int64{"requests": 1})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tc.rec.end(id, map[string]int64{"requests": 1}) }}
	return resp, nil
}

// routeSpan names a federation protocol request by its route.
func routeSpan(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/query":
		return "federation.execute"
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/results/"):
		return "federation.fetch"
	case req.Method == http.MethodDelete && strings.HasPrefix(req.URL.Path, "/results/"):
		return "federation.release"
	}
	return "federation.other"
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler wraps federation.Server.Handler(), timing each request that
// carries the benchmark's trace headers as a child of the client's span.
func tracedHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, qerr := strconv.ParseInt(r.Header.Get(headerQuery), 10, 64)
		parent, perr := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		if qerr != nil || perr != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.start(q, parent, "federation.server_handler")
		next.ServeHTTP(w, r)
		rec.end(id, nil)
	})
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// selfNS is a span's duration minus the part of it its children cover.
func selfNS(sp Span, spans []Span) int64 {
	var iv [][2]int64
	for _, c := range spans {
		if c.Parent == sp.ID {
			lo, hi := max(c.Start, sp.Start), min(c.End, sp.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
	}
	return sp.End - sp.Start - covered(iv)
}

// spanValues folds one traced query's spans into per-layer values keyed by
// metric name, adding them to v.
func spanValues(spans []Span, v map[string]float64) {
	for _, sp := range spans {
		ms := float64(sp.End-sp.Start) / 1e6
		switch sp.Name {
		case "federation.query":
			// The federator's whole call; its layers are its children.
		case "query":
			v["trace.unattributed_ms"] += float64(selfNS(sp, spans)) / 1e6
		case "formats.read":
			v["formats.read_ms"] += ms
			v["formats.read_calls"]++
			v["formats.samples_read"] += float64(sp.Counts["samples"])
			v["formats.parts_consulted"] += float64(sp.Counts["parts_consulted"])
			v["formats.parts_skipped"] += float64(sp.Counts["parts_skipped"])
			v["formats.regions_skipped"] += float64(sp.Counts["regions_skipped"])
		default:
			v[sp.Name+"_ms"] += ms
			v["federation.requests_per_query"] += float64(sp.Counts["requests"])
		}
	}
	if v["formats.read_calls"] == 0 {
		// Samples an in-memory SELECT drops were never read from storage.
		delete(v, "formats.samples_unused")
	}
}

// engineValues adds the operator self times and region flow of one engine
// span tree, as returned by Session.EvalProfiled or as grafted from a
// federation node.
func engineValues(root *obs.Span, v map[string]float64) {
	v["engine.regions_out"] += float64(root.RegionsOut)
	for _, sp := range root.Flatten() {
		if sp.CacheHit {
			continue
		}
		self := float64(sp.SelfNS()) / 1e6
		switch sp.Op {
		case "MAP":
			v["engine.map_self_ms"] += self
		case "JOIN":
			v["engine.join_self_ms"] += self
		case "COVER":
			v["engine.cover_self_ms"] += self
		case "SELECT":
			v["engine.select_self_ms"] += self
			if len(sp.Children) == 1 && sp.Children[0].Op == "SCAN" && !sp.Children[0].CacheHit {
				v["formats.samples_unused"] += float64(sp.SamplesIn - sp.SamplesOut)
			}
		case "SCAN":
			v["engine.scan_self_ms"] += self
			v["engine.regions_in"] += float64(sp.RegionsOut)
		}
	}
}
