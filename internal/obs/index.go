package obs

import (
	"fmt"
	"html"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
)

// The /debug/ index: every Mount* helper registers the endpoint it mounts
// (path + one-line description) against the mux it mounts on, and MountIndex
// serves the resulting table — so an operator can discover
// queries/prof/costs/slowlog/storage/repo/estimates from the service's own
// port without reading docs. The registry is kept per mux because a binary
// may split its debug surface across listeners (gmqld -metrics-addr).
//
// Each mux's registry lives in the mux itself: the first registration
// mounts an *endpointIndex on /debug/, and later ones find it there through
// mux.Handler. Nothing outside the mux refers to it, so a dropped mux is
// collected together with every handler, server and dataset behind it.

// Endpoint is one discoverable debug endpoint.
type Endpoint struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
}

// endpointIndex is one mux's registry and the /debug/ handler serving it.
type endpointIndex struct {
	mu  sync.Mutex
	eps []Endpoint
}

// mountMu serializes finding-or-mounting an index, so two concurrent first
// registrations on one mux cannot both mount /debug/.
var mountMu sync.Mutex

// indexOf returns the mux's index, mounting it on /debug/ when mount is set
// and the mux has none yet. It returns nil when there is no index, or when
// some other handler already serves /debug/ on the mux.
func indexOf(mux *http.ServeMux, mount bool) *endpointIndex {
	mountMu.Lock()
	defer mountMu.Unlock()
	h, pattern := mux.Handler(&http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/debug/"}})
	if ix, ok := h.(*endpointIndex); ok {
		return ix
	}
	if !mount || strings.HasSuffix(pattern, "/debug/") {
		return nil
	}
	ix := &endpointIndex{}
	mux.Handle("/debug/", ix)
	return ix
}

// RegisterEndpoint files one endpoint in the mux's /debug/ index, mounting
// the index on first use. Mount* helpers call it automatically; subsystems
// mounting handlers by hand (the repository catalog console) call it so
// their endpoints are discoverable too. Re-registering a path replaces its
// description.
func RegisterEndpoint(mux *http.ServeMux, path, desc string) {
	if mux == nil || path == "" {
		return
	}
	ix := indexOf(mux, true)
	if ix == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i := range ix.eps {
		if ix.eps[i].Path == path {
			ix.eps[i].Desc = desc
			return
		}
	}
	ix.eps = append(ix.eps, Endpoint{Path: path, Desc: desc})
}

// Endpoints lists the endpoints registered on a mux, sorted by path.
func Endpoints(mux *http.ServeMux) []Endpoint {
	ix := indexOf(mux, false)
	if ix == nil {
		return nil
	}
	return ix.list()
}

func (ix *endpointIndex) list() []Endpoint {
	ix.mu.Lock()
	out := append([]Endpoint(nil), ix.eps...)
	ix.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// MountIndex serves the discovery index on /debug/ (HTML, or JSON with
// ?format=json). Paths under /debug/ with no more specific handler land here
// too and get a 404 that links back to the index.
func MountIndex(mux *http.ServeMux) {
	RegisterEndpoint(mux, "/debug/", "this index: every debug endpoint mounted on this listener")
}

// ServeHTTP serves the index page.
func (ix *endpointIndex) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Path != "/debug/" && r.URL.Path != "/debug" {
		http.Error(w, "unknown debug endpoint; see /debug/ for the index", http.StatusNotFound)
		return
	}
	eps := ix.list()
	if WantJSON(r) {
		WriteJSON(w, eps)
		return
	}
	var b strings.Builder
	b.WriteString(PageHeader("debug index"))
	fmt.Fprintf(&b, "<h1>debug endpoints</h1><p>%d mounted on this listener</p>", len(eps))
	b.WriteString("<table><tr><th>endpoint</th><th>description</th></tr>")
	for _, ep := range eps {
		fmt.Fprintf(&b, "<tr><td><a href=\"%s\">%s</a></td><td>%s</td></tr>",
			html.EscapeString(ep.Path), html.EscapeString(ep.Path), html.EscapeString(ep.Desc))
	}
	b.WriteString("</table>")
	b.WriteString(PageFooter)
	WriteHTML(w, b.String())
}
