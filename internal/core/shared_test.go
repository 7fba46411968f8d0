package core_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/localdb"
	"csaw/internal/worldgen"
)

// TestApproachesSharedAcrossClients: one approach set serves two clients,
// and each fetches through it under its own connection budget, from its own
// host. While one client's whole budget is held, its fetches through the
// set wait and the other client's go through; building and using the
// clients leaves the set as it was. The world runs on the scaled clock, so
// that a fetch waiting on a budget times out instead of waiting for a
// clock no one moves; the deadlines are minutes of virtual time against
// fetches of a second or two.
func TestApproachesSharedAcrossClients(t *testing.T) {
	w, err := worldgen.New(worldgen.Options{Scale: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StandardSites(); err != nil {
		t.Fatal(err)
	}
	isp, err := w.AddISP(64500, "clean-isp", &censor.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	set := []*core.Approach{
		core.PublicDNSFix(nil, w.Clock, nil),
		core.StaticProxyApproach("proxy", nil, w.Clock, w.StaticProxies["Netherlands"]),
	}
	type parts struct {
		dial, lookup uintptr
		resolve      core.Resolve
	}
	snapshot := func() []parts {
		var ps []parts
		for _, a := range set {
			ps = append(ps, parts{
				reflect.ValueOf(a.Transport.Dialer).Pointer(),
				reflect.ValueOf(a.Transport.Lookup).Pointer(),
				a.Resolve,
			})
		}
		return ps
	}
	before := snapshot()

	url := worldgen.SmallHost + "/"
	newClient := func(name string) *core.Client {
		host := w.NewClientHost(name, isp)
		c, err := core.New(core.Config{
			Host: host, Clock: w.Clock,
			LDNS: w.LDNSAddrs(host), GDNS: []string{w.PublicDNSAddr},
			Approaches: set, MaxConns: 1, Serial: true, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		// Known blocked with an unknown mechanism: only the relay can carry
		// it, so every fetch goes through the shared proxy approach.
		c.DB().Put(url, isp.AS.Number, localdb.Blocked, nil)
		return c
	}
	a, b := newClient("shared-a"), newClient("shared-b")

	// a's whole budget: one connection, held open.
	held, err := a.Dial(context.Background(), w.StaticProxies["Netherlands"])
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(c *core.Client, d time.Duration) *core.Result {
		ctx, cancel := w.Clock.WithTimeout(context.Background(), d)
		defer cancel()
		return c.FetchURL(ctx, url)
	}
	if res := fetch(b, 10*time.Minute); !res.OK() || res.Source != "proxy" {
		t.Fatalf("b's fetch while a's budget is spent: %+v (err=%v)", res, res.Err)
	}
	if res := fetch(a, time.Minute); res.OK() {
		t.Fatalf("a fetched through the set with its budget spent: %+v", res)
	}
	held.Close()
	if res := fetch(a, 10*time.Minute); !res.OK() || res.Source != "proxy" {
		t.Fatalf("a's fetch once its budget is free: %+v (err=%v)", res, res.Err)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("the shared set changed: %+v, was %+v", after, before)
	}
}
