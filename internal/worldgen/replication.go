package worldgen

import (
	"fmt"
	"time"

	"csaw/internal/censor"
)

// The censor epochs that attack the global DB's hosted endpoint in worlds
// built with Options.GlobalDBReplicas: the §5 scenario where the censor
// blackholes the primary's IP mid-run and clients must fail over to another
// replica-set node within one sync round.

// armDBLoss installs a two-epoch schedule on an ISP's censor, derived from
// its standing policy: that policy unchanged from now, and from now+after
// the same policy (named "<standing>+<name>") additionally blackholing the
// global DB primary's IP — dropping the SYN, so clients see a timeout, the
// real-world signature of an IP blacklisted by the censor (per the
// Turkmenistan study). The standing URL-blocking rules survive the flip: the
// censor targets the aggregation infrastructure on top of, not instead of,
// its content policy. The other nodes' IPs stay reachable: the point is that
// the crowd's knowledge survives the loss of the hosted endpoint, which is
// why the world must be running replicas. Returns the schedule for reports.
func (w *World) armDBLoss(isp *ISP, seed int64, after time.Duration, name string) ([]censor.Epoch, error) {
	if w.ReplicaSet == nil {
		return nil, fmt.Errorf("worldgen: %s epoch needs GlobalDBReplicas > 0", name)
	}
	clean := isp.Censor.Policy()
	if clean == nil {
		clean = &censor.Policy{}
	}
	loss := *clean
	loss.Name = name
	if clean.Name != "" {
		loss.Name = clean.Name + "+" + name
	}
	loss.IP = make(map[string]censor.IPAction, len(clean.IP)+1)
	for k, v := range clean.IP {
		loss.IP[k] = v
	}
	loss.IP[GlobalDBIP] = censor.IPDrop
	now := w.Clock.Now()
	schedule := []censor.Epoch{
		{Start: now, Policy: clean},
		{Start: now.Add(after), Policy: &loss},
	}
	isp.Censor.EnableChurn(w.Clock, seed)
	isp.Censor.SetSchedule(schedule)
	return schedule, nil
}

// ArmReplicaLoss arms the replica-loss epoch: the primary's IP is
// blackholed but its process lives on, so the other nodes keep forwarding
// writes to it.
func (w *World) ArmReplicaLoss(isp *ISP, seed int64, after time.Duration) ([]censor.Epoch, error) {
	return w.armDBLoss(isp, seed, after, "replica-loss")
}

// ArmPrimaryLoss arms the primary-loss epoch: the experiment also kills the
// primary (ReplicaSet.Kill(0)) at the flip, so writes only survive because
// a ticked follower promotes itself.
func (w *World) ArmPrimaryLoss(isp *ISP, seed int64, after time.Duration) ([]censor.Epoch, error) {
	return w.armDBLoss(isp, seed, after, "primary-loss")
}
