// Package netsim models the J-Machine's interconnect: a 2D mesh with
// dimension-order routing and per-hop, per-word latency. The paper's
// measurements are uniprocessor, but its systems "can run on multiple
// processors"; this package plus machine.Machine's router hook provide
// the multi-node substrate (see internal/cluster).
//
// The model is a delivery-time network: a message sent at tick T to a
// node H hops away becomes deliverable at T + Base + PerHop*H +
// PerWord*len. Messages between the same pair of nodes are delivered in
// FIFO order; ordering across pairs follows delivery times (ties broken
// by send order), which matches a non-adaptive wormhole mesh closely
// enough for scheduling studies.
package netsim

import (
	"container/heap"
	"fmt"

	"jmtam/internal/obs"
	"jmtam/internal/word"
)

// Config sets the mesh dimensions and the latency model (in machine
// ticks; one tick is one instruction in the cluster driver).
type Config struct {
	Width, Height int
	// Base is the fixed send/receive overhead; PerHop the per-hop
	// routing delay; PerWord the serialization cost per message word.
	Base, PerHop, PerWord uint64
}

// DefaultConfig returns a small mesh with J-Machine-flavoured latencies
// (a few cycles per hop, one word per cycle of serialization).
func DefaultConfig(nodes int) Config {
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	return Config{Width: w, Height: h, Base: 4, PerHop: 2, PerWord: 1}
}

// Message is one in-flight network message.
type Message struct {
	Src, Dst int
	Pri      int
	Words    []word.Word

	due uint64
	seq uint64
}

type msgHeap []*Message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x interface{}) { *h = append(*h, x.(*Message)) }
func (h *msgHeap) Pop() interface{} {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

// Network is the mesh. Construct with New.
type Network struct {
	cfg      Config
	inflight msgHeap
	seq      uint64
	free     []*Message // delivered messages, words included, for Send to reuse

	// Statistics.
	Sent        uint64
	Delivered   uint64
	WordsSent   uint64
	MaxInFlight int

	// Obs, when non-nil, receives per-message hop/latency/occupancy
	// metrics and — if the sink has an event buffer — one in-flight
	// duration span per message on the network track of the source node.
	Obs *obs.Sink
}

// New builds a network; it panics on non-positive dimensions.
func New(cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("netsim: bad mesh %dx%d", cfg.Width, cfg.Height))
	}
	return &Network{cfg: cfg}
}

// Nodes returns the number of nodes in the mesh.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Hops returns the dimension-order route length between two nodes.
func (n *Network) Hops(src, dst int) int {
	sx, sy := src%n.cfg.Width, src/n.cfg.Width
	dx, dy := dst%n.cfg.Width, dst/n.cfg.Width
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Latency returns the delivery delay for a message of length words
// between src and dst.
func (n *Network) Latency(src, dst, words int) uint64 {
	return n.cfg.Base + n.cfg.PerHop*uint64(n.Hops(src, dst)) + n.cfg.PerWord*uint64(words)
}

// Send injects a message at time now. The word slice is copied.
func (n *Network) Send(src, dst, pri int, ws []word.Word, now uint64) error {
	if dst < 0 || dst >= n.Nodes() {
		return fmt.Errorf("netsim: destination %d outside %dx%d mesh",
			dst, n.cfg.Width, n.cfg.Height)
	}
	var m *Message
	if k := len(n.free); k > 0 {
		m, n.free = n.free[k-1], n.free[:k-1]
	} else {
		m = new(Message)
	}
	*m = Message{
		Src: src, Dst: dst, Pri: pri,
		Words: append(m.Words[:0], ws...),
		due:   now + n.Latency(src, dst, len(ws)),
		seq:   n.seq,
	}
	n.seq++
	heap.Push(&n.inflight, m)
	n.Sent++
	n.WordsSent += uint64(len(ws))
	if len(n.inflight) > n.MaxInFlight {
		n.MaxInFlight = len(n.inflight)
	}
	if s := n.Obs; s != nil {
		r := s.Metrics
		r.Counter("net.msgs").Add(1)
		r.Counter("net.words").Add(uint64(len(ws)))
		r.Histogram("net.hops").Observe(uint64(n.Hops(src, dst)))
		r.Histogram("net.latency").Observe(m.due - now)
		r.Histogram("net.inflight").Observe(uint64(len(n.inflight)))
		if s.Events != nil {
			s.Events.DurationArg(fmt.Sprintf("net %d->%d", src, dst), "net",
				int32(src), obs.TrackNet, now, m.due-now, "words", uint64(len(ws)))
		}
	}
	return nil
}

// Pending returns the number of in-flight messages.
func (n *Network) Pending() int { return len(n.inflight) }

// Deliver pops every message due at or before now, invoking f for each
// in delivery order. If f returns an error (e.g. a full destination
// queue), the message is dropped and the error returned. f may Send;
// it must not keep m or m.Words after it returns, because the network
// then reuses both for a later Send.
func (n *Network) Deliver(now uint64, f func(m *Message) error) error {
	for len(n.inflight) > 0 && n.inflight[0].due <= now {
		m := heap.Pop(&n.inflight).(*Message)
		n.Delivered++
		if err := f(m); err != nil {
			return fmt.Errorf("netsim: delivering %d->%d: %w", m.Src, m.Dst, err)
		}
		n.free = append(n.free, m)
	}
	return nil
}

// NextDue returns the earliest in-flight delivery time, or false.
func (n *Network) NextDue() (uint64, bool) {
	if len(n.inflight) == 0 {
		return 0, false
	}
	return n.inflight[0].due, true
}
