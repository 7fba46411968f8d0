package chaos

import (
	"context"
	"fmt"

	"csaw/internal/seedrand"
)

// EventKind is one fault class a schedule can inject.
type EventKind int

const (
	// KillLeader kills whichever node currently leads, for Dur rounds.
	KillLeader EventKind = iota
	// KillNode kills node Node (if alive) for Dur rounds.
	KillNode
	// PartitionLeader isolates the current leader for Dur rounds.
	PartitionLeader
	// PartitionNode isolates node Node for Dur rounds.
	PartitionNode
	// FlapClient fails the client's next Dur connects (transient glitch).
	FlapClient
	// TearLeader arms a torn WAL write on the leader; the schedule kills
	// the node one round later (the lost log has wedged its writes) and
	// restarts it after Dur rounds, exercising torn-tail truncation.
	TearLeader
	// BitFlipDown corrupts a dead never-leader node's WAL mid-file; its
	// restart exercises the history-loss wipe-and-resync path.
	BitFlipDown
)

func (k EventKind) String() string {
	switch k {
	case KillLeader:
		return "kill-leader"
	case KillNode:
		return "kill-node"
	case PartitionLeader:
		return "partition-leader"
	case PartitionNode:
		return "partition-node"
	case FlapClient:
		return "flap-client"
	case TearLeader:
		return "tear-leader"
	case BitFlipDown:
		return "bit-flip"
	default:
		return fmt.Sprintf("event-%d", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Round int
	Kind  EventKind
	Node  int // for KillNode / PartitionNode
	Dur   int // rounds until the fault heals (or connects for FlapClient)
}

// Schedule is a deterministic fault plan: Rounds of workload with Events
// injected at their rounds, then a heal-and-verify phase.
type Schedule struct {
	Name   string
	Rounds int
	Events []Event
}

// Generate derives a randomized schedule from seed. Event targets that
// depend on runtime state (which node leads) are resolved at injection
// time; everything the generator decides comes from its own seeded source,
// so a seed names exactly one schedule.
func Generate(seed int64) Schedule {
	rng := seedrand.New(seed)
	rounds := 14 + rng.Intn(8)
	s := Schedule{Name: fmt.Sprintf("sweep-%d", seed), Rounds: rounds}
	// Round 0 and 1 stay clean so the founding replica set replicates the
	// registration before the first fault.
	for r := 2; r < rounds-1; r++ {
		if rng.Float64() > 0.45 {
			continue
		}
		kind := EventKind(rng.Intn(7))
		ev := Event{Round: r, Kind: kind, Node: rng.Intn(numNodes), Dur: 2 + rng.Intn(3)}
		s.Events = append(s.Events, ev)
	}
	return s
}

// PrimaryLoss is the fixed reference schedule: the founding primary dies
// permanently mid-run; a follower must promote and keep absorbing writes.
func PrimaryLoss() Schedule {
	return Schedule{
		Name:   "primary-loss",
		Rounds: 10,
		Events: []Event{{Round: 3, Kind: KillNode, Node: 0, Dur: 100}}, // never restarted mid-run
	}
}

// Run executes a schedule against a fresh cluster rooted at dir, heals,
// and checks invariants. Returns the invariants verified and the
// convergence tick count.
func Run(ctx context.Context, seed int64, dir string, s Schedule) (*Cluster, []string, int, error) {
	c, err := New(seed, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	var restartAt, healAt [numNodes]int // node → round due (0 = none); index order keeps runs deterministic
	for i := range restartAt {
		restartAt[i], healAt[i] = -1, -1
	}
	tornKill := -1 // node wedged by a torn write, killed next round

	for round := 0; round < s.Rounds; round++ {
		for i := 0; i < numNodes; i++ {
			if restartAt[i] >= 0 && restartAt[i] <= round {
				if err := c.Restart(i); err != nil {
					return c, nil, 0, err
				}
				restartAt[i] = -1
			}
			if healAt[i] >= 0 && healAt[i] <= round {
				c.HealPartition(i)
				healAt[i] = -1
			}
		}
		if tornKill >= 0 {
			c.Kill(tornKill)
			restartAt[tornKill] = round + 2
			tornKill = -1
		}
		for _, ev := range s.Events {
			if ev.Round != round {
				continue
			}
			switch ev.Kind {
			case KillLeader:
				if li := c.Set.Leader(); li >= 0 {
					c.Kill(li)
					restartAt[li] = round + ev.Dur
				}
			case KillNode:
				c.Kill(ev.Node)
				restartAt[ev.Node] = round + ev.Dur
			case PartitionLeader:
				if li := c.Set.Leader(); li >= 0 {
					c.Partition(li)
					healAt[li] = round + ev.Dur
				}
			case PartitionNode:
				c.Partition(ev.Node)
				healAt[ev.Node] = round + ev.Dur
			case FlapClient:
				c.Flap(numNodes, ev.Dur)
			case TearLeader:
				tornKill = c.TearLeader()
			case BitFlipDown:
				c.BitFlip()
			}
		}
		c.Write(ctx, round)
		for t := 0; t < 2; t++ {
			if _, err := c.Tick(ctx); err != nil {
				return c, nil, 0, err
			}
		}
	}
	ticks, err := c.Heal(ctx, 40)
	if err != nil {
		return c, nil, ticks, err
	}
	checked, err := c.CheckInvariants()
	return c, checked, ticks, err
}
