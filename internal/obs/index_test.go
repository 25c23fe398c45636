package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestDebugEndpointsIndexPerMux: each mux carries its own /debug/ index,
// mounted by the first registration, and leaves a foreign /debug/ handler
// alone.
func TestDebugEndpointsIndexPerMux(t *testing.T) {
	a, b := http.NewServeMux(), http.NewServeMux()
	if eps := Endpoints(a); eps != nil {
		t.Fatalf("fresh mux lists %v", eps)
	}
	RegisterEndpoint(a, "/debug/zeta", "old")
	RegisterEndpoint(a, "/debug/alpha", "first")
	RegisterEndpoint(a, "/debug/zeta", "last")
	MountIndex(a)
	RegisterEndpoint(b, "/debug/other", "b only")

	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/?format=json", nil))
	var got []Endpoint
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("index JSON: %v\n%s", err, rec.Body.String())
	}
	want := []Endpoint{{"/debug/", "this index: every debug endpoint mounted on this listener"},
		{"/debug/alpha", "first"}, {"/debug/zeta", "last"}}
	if len(got) != len(want) {
		t.Fatalf("index = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index = %v, want %v", got, want)
		}
	}
	if eps := Endpoints(b); len(eps) != 1 || eps[0].Path != "/debug/other" {
		t.Fatalf("second mux lists %v", eps)
	}

	foreign := http.NewServeMux()
	foreign.HandleFunc("/debug/", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusTeapot) })
	RegisterEndpoint(foreign, "/debug/x", "unindexed")
	MountIndex(foreign)
	rec = httptest.NewRecorder()
	foreign.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/", nil))
	if rec.Code != http.StatusTeapot || Endpoints(foreign) != nil {
		t.Fatalf("foreign /debug/ handler replaced: status %d, index %v", rec.Code, Endpoints(foreign))
	}
}

// TestDebugEndpointsDroppedMuxCollected: registering endpoints must not
// keep a mux, or anything its handlers reference, reachable once the mux is
// dropped.
func TestDebugEndpointsDroppedMuxCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		payload := new([1 << 16]byte)
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(collected) })
		mux := http.NewServeMux()
		mux.HandleFunc("/payload", func(w http.ResponseWriter, _ *http.Request) { w.Write(payload[:1]) })
		Mount(mux, NewRegistry())
		RegisterEndpoint(mux, "/payload", "holds the payload")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped mux was never garbage collected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
