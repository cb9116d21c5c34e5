// Package cluster executes several simulated machines against a mesh
// network, modelling the J-Machine as a multicomputer. One tick
// corresponds to one instruction slot per node; messages sent to remote
// nodes travel through the netsim mesh and are buffered into the
// destination's hardware queue on arrival, exactly like local sends.
//
// The paper's measurements are uniprocessor. The cluster is the
// substrate for its "our systems can run on multiple processors"
// remark, exercised both by hand-written multi-node programs (see
// examples/multinode) and by the TAM backends themselves: core compiles
// mesh-aware runtime code (distributed frame placement, remote
// I-structure handlers) and drives an N-node cluster through
// core.ClusterSim, with per-node runtime state in each machine's
// private system data and the frame/heap segments shared but
// partitioned for allocation.
//
// The lockstep loop steps only awake nodes. A node whose step makes no
// progress (idle, or parked at WAIT) sleeps until a delivery reaches it,
// the only event that can change that; awake nodes step in node order,
// so sends, shared frame/heap accesses and ticks are exactly those of
// stepping every node on every tick. Each run starts with every node
// awake, so a host Inject between runs is safe, and recovers once: a
// fault while stepping or delivering becomes an error.
package cluster

import (
	"context"
	"fmt"

	"jmtam/internal/machine"
	"jmtam/internal/netsim"
	"jmtam/internal/obs"
	"jmtam/internal/word"
)

// Cluster drives N machines and one network in lockstep.
type Cluster struct {
	Net      *netsim.Network
	Machines []*machine.Machine

	// Classify, when non-nil, labels each inter-node message from its
	// priority and payload (e.g. "ifetch", "falloc", "user"). Every
	// send then bumps net.class.<label> (message count) and
	// net.latency.<label> (total modelled latency) in the sink attached
	// via SetSink, so network traffic can be attributed to remote
	// I-structure requests versus frame-spawn traffic. Set before
	// running.
	Classify func(pri int, ws []word.Word) string

	// Service, when non-nil, is consulted for every network delivery
	// before the message is buffered into the destination's hardware
	// queue. Returning true consumes the message — the node's memory
	// interface serviced it directly, without dispatching a handler
	// (Active Access style remote memory operations). Returning false
	// falls through to normal queue injection. The hook may send reply
	// messages via Net.Send at the given tick, but must not keep m or
	// m.Words after it returns (the network reuses both). Set before
	// running.
	Service func(tick uint64, m *netsim.Message) (bool, error)

	tick   uint64
	asleep []bool // per node: its last step made no progress
	dst    int    // destination of the delivery in progress
}

// New wires the machines' routers to a fresh mesh. Each machine must
// have been constructed with its own memory (code stores may be
// shared); machine i becomes node i.
func New(machines []*machine.Machine, cfg netsim.Config) (*Cluster, error) {
	net := netsim.New(cfg)
	if len(machines) > net.Nodes() {
		return nil, fmt.Errorf("cluster: %d machines exceed %d-node mesh", len(machines), net.Nodes())
	}
	c := &Cluster{Net: net, Machines: machines, asleep: make([]bool, len(machines))}
	for i, m := range machines {
		node := i
		m.SetRouter(node, func(dst, pri int, ws []word.Word) error {
			if err := c.Net.Send(node, dst, pri, ws, c.tick); err != nil {
				return err
			}
			if c.Classify != nil && c.Net.Obs != nil {
				cls := c.Classify(pri, ws)
				r := c.Net.Obs.Metrics
				r.Counter("net.class." + cls).Add(1)
				r.Counter("net.latency." + cls).Add(c.Net.Latency(node, dst, len(ws)))
			}
			return nil
		})
	}
	return c, nil
}

// Tick returns the current cluster time.
func (c *Cluster) Tick() uint64 { return c.tick }

// SetSink attaches one observability sink to every machine and the
// network. Lockstep execution is single-threaded, so sharing a sink
// across nodes is safe; each machine's events carry its node id as the
// timeline pid.
func (c *Cluster) SetSink(s *obs.Sink) {
	for i, m := range c.Machines {
		m.SetSink(s)
		if s != nil && s.Events != nil {
			s.Events.SetProcessName(int32(i), fmt.Sprintf("node %d", i))
			s.Events.SetThreadName(int32(i), obs.TrackNet, "network")
		}
	}
	c.Net.Obs = s
}

// FinishMetrics flushes end-of-run metrics (per-machine aggregates and
// network totals) into the attached sink; call after Run.
func (c *Cluster) FinishMetrics() {
	var sink *obs.Sink
	for _, m := range c.Machines {
		m.FinishMetrics()
		if sink == nil {
			sink = m.Sink()
		}
	}
	if sink == nil {
		return
	}
	r := sink.Metrics
	r.Gauge("net.inflight.max").Set(int64(c.Net.MaxInFlight))
	r.Counter("net.delivered").Add(c.Net.Delivered)
}

// Run executes until global quiescence (every machine idle, no messages
// in flight) or until maxTicks elapses; zero means no limit.
func (c *Cluster) Run(maxTicks uint64) error {
	return c.RunContext(context.Background(), maxTicks)
}

// RunContext is Run with cooperative cancellation: the context is
// polled every few thousand ticks, so a cancelled (or hung) cluster
// run stops promptly with an error wrapping ctx.Err(). A simulation
// fault on a node, or while delivering to one, stops the run with an
// error wrapping machine.ErrTrap.
func (c *Cluster) RunContext(ctx context.Context, maxTicks uint64) (err error) {
	const pollTicks = 1 << 13
	nextPoll := c.tick + pollTicks
	clear(c.asleep)
	stepping := -1 // the node being stepped, or -1 between steps
	defer func() {
		if r := recover(); r != nil {
			if stepping >= 0 {
				err = c.Machines[stepping].Fault(r)
			} else {
				err = fmt.Errorf("cluster: %w: %v (delivering to node %d at tick %d)",
					machine.ErrTrap, r, c.dst, c.tick)
			}
		}
	}()
	for {
		if c.tick >= nextPoll {
			nextPoll = c.tick + pollTicks
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("cluster: cancelled at tick %d: %w", c.tick, err)
			}
		}
		progress := false
		for i, m := range c.Machines {
			if c.asleep[i] {
				continue
			}
			stepping = i
			ok, err := m.Step()
			if err != nil {
				return err
			}
			progress = progress || ok
			c.asleep[i] = !ok
		}
		stepping = -1
		c.tick++
		before := c.Net.Delivered
		if err := c.deliverDue(); err != nil {
			return err
		}
		// Quiescence requires that this tick neither stepped a machine
		// nor delivered a message: a delivery can wake an idle machine,
		// so it counts as progress even when every Step came up dry.
		if !progress && c.Net.Delivered == before {
			if c.Net.Pending() == 0 {
				return nil
			}
			// Everyone is idle waiting on the network: fast-forward to
			// the next delivery.
			if due, ok := c.Net.NextDue(); ok && due > c.tick {
				c.tick = due
			}
			if err := c.deliverDue(); err != nil {
				return err
			}
		}
		if maxTicks != 0 && c.tick >= maxTicks {
			return fmt.Errorf("cluster: tick limit %d exceeded", maxTicks)
		}
	}
}

func (c *Cluster) deliverDue() error {
	return c.Net.Deliver(c.tick, func(m *netsim.Message) error {
		c.dst = m.Dst
		if c.Service != nil {
			done, err := c.Service(c.tick, m)
			if done || err != nil {
				return err
			}
		}
		c.asleep[m.Dst] = false
		return c.Machines[m.Dst].Inject(m.Pri, m.Words)
	})
}
