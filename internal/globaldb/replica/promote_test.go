package replica

import (
	"context"
	"fmt"
	"testing"

	"csaw/internal/globaldb"
	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// peerState puts one node of a fresh set into the state an election probe
// should find it in. term > 0 enters the node's stream as a term record led
// from its own address, exactly as a promotion (or an absorbed stream) would
// leave it.
type peerState struct {
	down   bool
	role   string
	term   int64
	offset uint64
}

func (w *replWorld) arrange(t *testing.T, i int, st peerState) {
	t.Helper()
	n := w.set.Nodes[i]
	if st.term > 0 {
		if err := n.Server.Absorb(&storage.Record{Kind: storage.KindTerm, UUID: n.Self, Now: st.term}); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	n.role, n.offset = st.role, st.offset
	n.mu.Unlock()
	if st.down {
		if err := w.set.Kill(i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestElect drives node 1's election against arranged peers: the founding
// primary (node 0) and the other follower (node 2).
func TestElect(t *testing.T) {
	leader, follower := globaldb.RoleLeader, globaldb.RoleFollower
	cases := []struct {
		name         string
		self         peerState // node 1, the elector
		node0, node2 peerState
		want         string
		wantTerm     int64  // elector's lineage term afterwards
		wantUpstream string // elector's upstream afterwards
	}{
		{
			name:  "adopts a newer leader",
			node0: peerState{down: true, role: leader},
			node2: peerState{role: leader, term: 2},
			want:  "adopted", wantUpstream: addr2,
		},
		{
			name:  "of two leader claims adopts the higher term",
			node0: peerState{role: leader, term: 1},
			node2: peerState{role: leader, term: 3},
			want:  "adopted", wantUpstream: addr2,
		},
		{
			name:  "does not adopt a leader on an older term than its own lineage",
			self:  peerState{term: 2},
			node0: peerState{role: leader},
			node2: peerState{down: true},
			want:  "promoted", wantTerm: 3, wantUpstream: addr0,
		},
		{
			name:  "defers to a more caught-up same-lineage peer",
			self:  peerState{offset: 3},
			node0: peerState{down: true, role: leader},
			node2: peerState{role: follower, offset: 5},
			want:  "deferred", wantUpstream: addr0,
		},
		{
			name:  "wins the name tie-break at equal offsets",
			self:  peerState{offset: 5},
			node0: peerState{down: true, role: leader},
			node2: peerState{role: follower, offset: 5},
			want:  "promoted", wantTerm: 1, wantUpstream: addr0,
		},
		{
			name:  "ignores a cross-lineage peer's longer stream and mints max(seen)+1",
			self:  peerState{offset: 3},
			node0: peerState{down: true, role: leader},
			node2: peerState{role: follower, term: 5, offset: 99},
			want:  "promoted", wantTerm: 6, wantUpstream: addr0,
		},
		{
			name:  "promotes alone when nobody answers",
			node0: peerState{down: true, role: leader},
			node2: peerState{down: true},
			want:  "promoted", wantTerm: 1, wantUpstream: addr0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newReplWorld(t)
			w.arrange(t, 0, tc.node0)
			w.arrange(t, 1, tc.self)
			w.arrange(t, 2, tc.node2)
			n := w.set.Nodes[1]
			n.missed = n.missedThreshold()

			if got := n.elect(context.Background()); got != tc.want {
				t.Fatalf("elect = %q, want %q", got, tc.want)
			}
			term, termLeader, _ := n.Server.TermState()
			if want := max(tc.wantTerm, tc.self.term); term != want {
				t.Fatalf("lineage term %d afterwards, want %d", term, want)
			}
			if got := n.primaryAddr(); got != tc.wantUpstream {
				t.Fatalf("upstream %q afterwards, want %q", got, tc.wantUpstream)
			}
			switch tc.want {
			case "promoted":
				if n.RoleName() != leader || termLeader != n.Self || n.Server.Fenced() || n.missed != 0 {
					t.Fatalf("after promotion: role %s, term led from %q, fenced %v, missed %d",
						n.RoleName(), termLeader, n.Server.Fenced(), n.missed)
				}
			case "adopted":
				if n.RoleName() != follower || !n.Server.Fenced() || n.missed != 0 {
					t.Fatalf("after adoption: role %s, fenced %v, missed %d", n.RoleName(), n.Server.Fenced(), n.missed)
				}
			case "deferred":
				if n.RoleName() != follower || n.missed != n.missedThreshold() {
					t.Fatalf("after deferring: role %s, missed %d — the next tick must re-run the election", n.RoleName(), n.missed)
				}
			}
		})
	}
}

// TestHandleDemote posts demotions at node 1 (address addr1, between addr0
// and addr2) and checks the answer and what the node remembers.
func TestHandleDemote(t *testing.T) {
	leader, follower := globaldb.RoleLeader, globaldb.RoleFollower
	cases := []struct {
		name     string
		self     peerState
		query    string
		wantCode int
	}{
		{"higher term demotes a leader", peerState{role: leader, term: 2}, "term=3&leader=" + addr2 + "&have=4", 200},
		{"higher term repoints a follower", peerState{role: follower, term: 2}, "term=3&leader=" + addr2 + "&have=4", 200},
		{"lower term is refused", peerState{role: leader, term: 2}, "term=1&leader=" + addr0 + "&have=4", 409},
		{"equal term from a smaller address beats a leader", peerState{role: leader, term: 2}, "term=2&leader=" + addr0 + "&have=4", 200},
		{"equal term from a larger address loses to a leader", peerState{role: leader, term: 2}, "term=2&leader=" + addr2 + "&have=4", 409},
		{"equal term never demotes a follower", peerState{role: follower, term: 2}, "term=2&leader=" + addr0 + "&have=4", 409},
		{"bad term", peerState{role: leader}, "term=x&leader=" + addr0, 400},
		{"missing leader", peerState{role: leader}, "term=3", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newReplWorld(t)
			w.arrange(t, 1, tc.self)
			n := w.set.Nodes[1]
			req := httpx.NewRequest("POST", "globaldb.example", globaldb.PathReplDemote+"?"+tc.query)
			resp := n.Handler().ServeHTTP(req, netem.Flow{})
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("demote answered %d %s, want %d", resp.StatusCode, resp.Body, tc.wantCode)
			}
			n.mu.Lock()
			role, resync, to, from := n.role, n.resync, n.resyncTo, n.pushFrom
			n.mu.Unlock()
			if tc.wantCode != 200 {
				if role != tc.self.role || resync || n.Server.Fenced() {
					t.Fatalf("refused demotion changed the node: role %q, resync %v, fenced %v", role, resync, n.Server.Fenced())
				}
				return
			}
			winner := globaldb.QueryParam(req.Target, "leader")
			if role != follower || !resync || to != winner || from != 4 || n.primaryAddr() != winner || !n.Server.Fenced() {
				t.Fatalf("accepted demotion left role %q, resync %v→%q from %d, upstream %q, fenced %v",
					role, resync, to, from, n.primaryAddr(), n.Server.Fenced())
			}
		})
	}
}

// TestHealthySetNeverElects ticks a set whose leader is alive: followers
// pull, the leader reconciles, nobody counts a missed pull, and the lineage
// stays the founding one. It asserts outcomes, not timing, so it runs on the
// event clock: a host stall cannot expire a pull's 5 s timeout (5 ms of real
// time on the scaled clock) and count a missed pull.
func TestHealthySetNeverElects(t *testing.T) {
	w := newReplWorldOn(t, vtime.NewEventDriven())
	ctx := context.Background()
	c := w.client(addr0)
	seedReports(t, c, "a.example/")
	for round := 0; round < 6; round++ {
		if got, want := fmt.Sprint(w.set.Tick(ctx)), "[reconciled pulled pulled]"; got != want {
			t.Fatalf("tick %d = %s, want %s", round, got, want)
		}
		for _, n := range w.set.Nodes {
			if n.missed != 0 {
				t.Fatalf("tick %d: %s counts %d missed pulls under a live leader", round, n.Name, n.missed)
			}
		}
		if _, err := c.Report(ctx, blockedRecords(fmt.Sprintf("round-%d.example/", round))); err != nil {
			t.Fatal(err)
		}
	}
	w.set.Tick(ctx) // drain the last round's report
	if li := w.set.Leader(); li != 0 {
		t.Fatalf("leader index %d, want the founding primary", li)
	}
	for _, n := range w.set.Nodes {
		if term, _, _ := n.Server.TermState(); term != 0 {
			t.Fatalf("%s is on term %d; a healthy set mints none", n.Name, term)
		}
	}
	if err := w.set.CheckIdentical(100); err != nil {
		t.Fatal(err)
	}
}
