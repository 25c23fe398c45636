package federation

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"genogo/internal/obs"
)

// The /debug/federation membership console: per-member health state (probe
// outcome, latency, breaker position) and the placement map's replica count
// per data unit — the coordinator's live view of the federation, mounted on
// gmqld and on federation servers alike.

// PlacementSnapshot is one data unit's row of the placement table.
type PlacementSnapshot struct {
	Unit     string   `json:"unit"`
	Replicas int      `json:"replicas"`
	Members  []string `json:"members"`
}

// MemberSnapshot is one member's row of the membership table.
type MemberSnapshot struct {
	MemberHealth
	// Breaker is the member client's circuit position.
	Breaker string `json:"breaker"`
}

// MembershipSnapshot is the console's full view.
type MembershipSnapshot struct {
	// Members lists every member with its probed health and breaker state.
	Members []MemberSnapshot `json:"members"`
	// Placement lists every replicated data unit (empty without a
	// Placement, when each member is its own single-copy leg).
	Placement []PlacementSnapshot `json:"placement,omitempty"`
	// Hedging reports whether hedged requests are on.
	Hedging bool `json:"hedging"`
}

// Membership snapshots the federator's membership view for the console.
func (f *Federator) Membership() MembershipSnapshot {
	snap := MembershipSnapshot{Hedging: f.Hedge.Enabled}
	probed := f.Prober.Status()
	for i, c := range f.Clients {
		ms := MemberSnapshot{Breaker: c.Breaker.State().String()}
		if i < len(probed) {
			ms.MemberHealth = probed[i]
		} else {
			ms.MemberHealth = MemberHealth{Member: c.BaseURL, StateName: HealthUnknown.String()}
		}
		snap.Members = append(snap.Members, ms)
	}
	for _, unit := range f.Placement.Units() {
		ps := PlacementSnapshot{Unit: unit, Replicas: f.Placement.Replicas(unit)}
		for _, m := range f.Placement.Members(unit) {
			if m >= 0 && m < len(f.Clients) {
				ps.Members = append(ps.Members, f.Clients[m].BaseURL)
			}
		}
		snap.Placement = append(snap.Placement, ps)
	}
	return snap
}

// MountFederation serves the membership console on /debug/federation. snap
// resolves the current membership view per request (so it can be wired
// after mounting); a nil snap — or a snap returning nil — renders the
// standalone-node page (this process coordinates no federation).
func MountFederation(mux *http.ServeMux, snap func() *MembershipSnapshot) {
	mux.HandleFunc("/debug/federation", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var sp *MembershipSnapshot
		if snap != nil {
			sp = snap()
		}
		var s MembershipSnapshot
		if sp != nil {
			s = *sp
		}
		if obs.WantJSON(r) {
			obs.WriteJSON(w, s)
			return
		}
		var b strings.Builder
		b.WriteString(obs.PageHeader("federation"))
		fmt.Fprintf(&b, "<h1>federation membership</h1>")
		if sp == nil {
			b.WriteString("<p>standalone node: this process coordinates no federation members</p>")
			b.WriteString(obs.PageFooter)
			obs.WriteHTML(w, b.String())
			return
		}
		fmt.Fprintf(&b, "<p>%d members, hedging %s</p>", len(s.Members), onOff(s.Hedging))
		b.WriteString("<h2>members</h2><table><tr><th>member</th><th>state</th><th>probe latency</th><th>failures</th><th>breaker</th><th>last error</th></tr>")
		for _, m := range s.Members {
			fmt.Fprintf(&b, "<tr><td>%s</td><td><span class=st-%s>%s</span></td><td>%.1fms</td><td>%d</td><td>%s</td><td>%s</td></tr>",
				html.EscapeString(m.Member), stateClass(m.StateName), html.EscapeString(m.StateName),
				m.LatencyMS, m.Failures, html.EscapeString(m.Breaker), html.EscapeString(m.Err))
		}
		b.WriteString("</table>")
		if len(s.Placement) > 0 {
			b.WriteString("<h2>placement</h2><table><tr><th>data unit</th><th>replicas</th><th>members</th></tr>")
			for _, p := range s.Placement {
				fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td></tr>",
					html.EscapeString(p.Unit), p.Replicas, html.EscapeString(strings.Join(p.Members, ", ")))
			}
			b.WriteString("</table>")
		} else {
			b.WriteString("<p>no placement map: single-copy layout (one singleton leg per member, nothing to fail over to)</p>")
		}
		b.WriteString(obs.PageFooter)
		obs.WriteHTML(w, b.String())
	})
	obs.RegisterEndpoint(mux, "/debug/federation",
		"federation membership: per-member health, probe latency, breaker state, replica placement")
}

// stateClass maps a health state to the console's status CSS classes.
func stateClass(state string) string {
	switch state {
	case "up":
		return "done"
	case "suspect":
		return "partial"
	case "down":
		return "failed"
	default:
		return "running"
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
