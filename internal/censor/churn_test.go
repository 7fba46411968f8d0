package censor

import (
	"context"
	"testing"
	"time"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// fetchBody does one HTTP GET from the test client straight to the origin
// IP (no DNS dependency) and classifies the outcome.
func fetchBody(t *testing.T, w *world, host string) (string, error) {
	t.Helper()
	resp, err := w.httpClient().Get(context.Background(), w.originIP+":80", host, "/")
	if err != nil {
		return "", err
	}
	return string(resp.Body), nil
}

func TestEpochScheduleFlipsPolicy(t *testing.T) {
	w := newWorld(t, nil) // start from an empty policy; the schedule supplies them
	clock := w.n.Clock()
	now := clock.Now()

	w.censor.EnableChurn(clock, 1)
	w.censor.SetSchedule([]Epoch{
		{Start: now, Policy: &Policy{Name: "clean"}},
		{Start: now.Add(time.Hour), Policy: &Policy{
			Name: "block-youtube",
			HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}},
		}},
	})

	if got, err := fetchBody(t, w, "www.youtube.com"); err != nil || got == DefaultBlockPageHTML {
		t.Fatalf("pre-flip fetch = %q, %v; want real page", got, err)
	}
	if name := w.censor.Policy().Name; name != "clean" {
		t.Fatalf("policy %q, want the first epoch's", name)
	}
	if flips := w.censor.Counters.Get("epoch-flip"); flips != 0 {
		t.Fatalf("epoch-flip = %d before any flip", flips)
	}

	clock.Advance(time.Hour + time.Minute)

	if got, err := fetchBody(t, w, "www.youtube.com"); err != nil || got != DefaultBlockPageHTML {
		t.Fatalf("post-flip fetch = %q, %v; want block page", got, err)
	}
	if name := w.censor.Policy().Name; name != "block-youtube" {
		t.Fatalf("policy %q, want the second epoch's", name)
	}
	if flips := w.censor.Counters.Get("epoch-flip"); flips != 1 {
		t.Fatalf("epoch-flip = %d, want 1", flips)
	}
	if st := w.censor.EpochStart(); !st.Equal(now.Add(time.Hour)) {
		t.Fatalf("EpochStart = %v, want %v", st, now.Add(time.Hour))
	}

	// Unrelated hosts stay clean across the flip.
	if got, err := fetchBody(t, w, "ok.example.com"); err != nil || got == DefaultBlockPageHTML {
		t.Fatalf("clean fetch post-flip = %q, %v", got, err)
	}
}

func TestEpochAdvancePastSeveralEpochsCountsEachFlip(t *testing.T) {
	w := newWorld(t, nil)
	clock := w.n.Clock()
	now := clock.Now()
	w.censor.EnableChurn(clock, 1)
	w.censor.SetSchedule([]Epoch{
		{Start: now, Policy: &Policy{Name: "e0"}},
		{Start: now.Add(time.Hour), Policy: &Policy{Name: "e1"}},
		{Start: now.Add(2 * time.Hour), Policy: &Policy{Name: "e2"}},
	})
	clock.Advance(3 * time.Hour)
	if name := w.censor.Policy().Name; name != "e2" {
		t.Fatalf("active policy = %q, want e2", name)
	}
	if flips := w.censor.Counters.Get("epoch-flip"); flips != 2 {
		t.Fatalf("epoch-flip = %d, want 2 (one per transition)", flips)
	}
}

// enforcement decisions under Intermittent must follow the seeded RNG:
// same seed → same accept/skip sequence; clean traffic must not consume
// draws.
func TestIntermittentEnforcementSeededAndMatchOnly(t *testing.T) {
	run := func(cleanBetween bool) []bool {
		p := &Policy{
			HTTP:         []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}},
			Intermittent: 0.5,
		}
		// The event clock: the test asserts a draw sequence, which host
		// timing has no part in.
		w := newWorld(t, p, withClock(vtime.NewEventDriven()))
		w.censor.EnableChurn(w.n.Clock(), 42)
		var blocked []bool
		for i := 0; i < 24; i++ {
			if cleanBetween {
				// Interleaved clean traffic: matches nothing, so it must not
				// advance the RNG.
				if _, err := fetchBody(t, w, "ok.example.com"); err != nil {
					t.Fatalf("clean fetch: %v", err)
				}
			}
			got, err := fetchBody(t, w, "www.youtube.com")
			if err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
			blocked = append(blocked, got == DefaultBlockPageHTML)
		}
		return blocked
	}

	a := run(false)
	b := run(true)
	nBlocked, nPassed := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs with interleaved clean traffic: %v vs %v", i, a[i], b[i])
		}
		if a[i] {
			nBlocked++
		} else {
			nPassed++
		}
	}
	if nBlocked == 0 || nPassed == 0 {
		t.Fatalf("intermittent censor never blinked or never fired: blocked=%d passed=%d", nBlocked, nPassed)
	}
}

func TestResidualCensorshipPunishesSubsequentFlows(t *testing.T) {
	p := &Policy{
		HTTP:           []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}},
		ResidualWindow: 2 * time.Minute,
	}
	w := newWorld(t, p)
	clock := w.n.Clock()
	w.censor.EnableChurn(clock, 7)

	// Trigger: the blocked fetch serves the block page and arms the window.
	if got, err := fetchBody(t, w, "www.youtube.com"); err != nil || got != DefaultBlockPageHTML {
		t.Fatalf("trigger fetch = %q, %v; want block page", got, err)
	}
	if w.censor.Counters.Get("residual-arm") == 0 {
		t.Fatal("residual window not armed after enforcement")
	}

	// Inside the window even a clean destination is unreachable: the
	// punishment is per-client, not per-rule.
	if err := w.dial(w.originIP + ":80"); !netem.IsTimeout(err) {
		t.Fatalf("dial inside residual window = %v, want timeout", err)
	}
	if w.censor.Counters.Get("residual-drop") == 0 {
		t.Fatal("residual-drop not counted")
	}

	// After the window lapses the client recovers without any state reset.
	clock.Advance(3 * time.Minute)
	if got, err := fetchBody(t, w, "ok.example.com"); err != nil || got == DefaultBlockPageHTML {
		t.Fatalf("post-window clean fetch = %q, %v", got, err)
	}
}

func TestResidualRequiresEnforcement(t *testing.T) {
	// A policy with a window but no matching rule must never punish.
	p := &Policy{
		HTTP:           []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}},
		ResidualWindow: 2 * time.Minute,
	}
	w := newWorld(t, p)
	w.censor.EnableChurn(w.n.Clock(), 7)
	if got, err := fetchBody(t, w, "ok.example.com"); err != nil || got == DefaultBlockPageHTML {
		t.Fatalf("clean fetch = %q, %v", got, err)
	}
	if err := w.dial(w.originIP + ":80"); err != nil {
		t.Fatalf("clean client dial = %v, want success", err)
	}
	if w.censor.Counters.Get("residual-drop") != 0 || w.censor.Counters.Get("residual-arm") != 0 {
		t.Fatal("residual machinery fired without an enforcement event")
	}
}
