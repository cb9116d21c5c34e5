package cluster

import (
	"errors"
	"reflect"
	"testing"

	"jmtam/internal/asm"
	"jmtam/internal/isa"
	"jmtam/internal/machine"
	"jmtam/internal/mem"
	"jmtam/internal/netsim"
	"jmtam/internal/obs"
	"jmtam/internal/word"
)

// Per-node globals used by the hand-written multi-node programs.
const (
	gNext    = mem.SysDataBase + 0x100 // node id to forward to
	gResult  = mem.SysDataBase + 0x104
	gAccum   = mem.SysDataBase + 0x108
	gCount   = mem.SysDataBase + 0x10c
	gNPeers  = mem.SysDataBase + 0x110
	gDivisor = mem.SysDataBase + 0x114
)

// buildRing assembles the token-ring program: a handler receives a
// counter, and either forwards counter+1 to the next node (read from a
// per-node global) or stores it when the limit is reached. With divide
// set, the handler first divides the counter by the node's gDivisor
// global, so a node whose divisor is zero traps on the token's arrival.
func buildRing(t *testing.T, limit int64, divide bool) *machine.CodeStore {
	t.Helper()
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	user.Label("ring")
	user.LD(0, isa.RMsg, 4) // counter
	if divide {
		user.LDAbs(1, gDivisor)
		user.Div(1, 0, 1)
	}
	user.MovI(1, limit)
	user.BLT(0, 1, "ring.fwd")
	user.STAbs(gResult, 0)
	user.Suspend()
	user.Label("ring.fwd")
	user.AddI(0, 0, 1)
	user.LDAbs(1, gNext)
	user.MsgI(machine.Low)
	user.MsgDest(1)
	user.SendWALabel("ring")
	user.SendW(0)
	user.SendE()
	user.Suspend()
	if err := sys.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := user.Finish(); err != nil {
		t.Fatal(err)
	}
	return machine.NewCodeStore(sys.Code(), user.Code())
}

func newNodes(t *testing.T, n int, code *machine.CodeStore) []*machine.Machine {
	t.Helper()
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = machine.NewMachine(mem.NewDefault(), code, machine.Config{MaxInstructions: 1_000_000})
	}
	return ms
}

// schedule is the observable outcome of a lockstep run: elapsed ticks,
// network totals and every machine's instruction count.
type schedule struct {
	Tick, Sent  uint64
	MaxInFlight int
	Instrs      []uint64
}

// checkSchedule compares c's schedule against values pinned from the
// lockstep loop that stepped every node on every tick, so skipping
// parked nodes must not move a tick, a send or an instruction.
func checkSchedule(t *testing.T, c *Cluster, want schedule) {
	t.Helper()
	got := schedule{Tick: c.Tick(), Sent: c.Net.Sent, MaxInFlight: c.Net.MaxInFlight}
	for _, m := range c.Machines {
		got.Instrs = append(got.Instrs, m.Instructions())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %+v, want %+v", got, want)
	}
}

// newRing builds an n-node token ring (each node forwards to the next)
// without starting it.
func newRing(t *testing.T, n int, limit int64, divide bool) (*Cluster, []*machine.Machine) {
	t.Helper()
	ms := newNodes(t, n, buildRing(t, limit, divide))
	for i, m := range ms {
		m.Mem.Store(gNext, word.Int(int64((i+1)%n)))
	}
	c, err := New(ms, netsim.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return c, ms
}

var ringAddr = word.Ptr(mem.UserCodeBase)

func TestTokenRing(t *testing.T) {
	const n, laps = 4, 3
	const limit = int64(n * laps)
	c, ms := newRing(t, n, limit, false)
	// Kick node 0 with counter 0; the token makes laps full circles and
	// stops wherever the count hits the limit (node 0 again).
	if err := ms[0].Inject(machine.Low, []word.Word{ringAddr, word.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := ms[0].Mem.LoadInt(gResult); got != limit {
		t.Errorf("result = %d, want %d", got, limit)
	}
	if c.Net.Delivered != c.Net.Sent {
		t.Errorf("delivered %d != sent %d", c.Net.Delivered, c.Net.Sent)
	}
	checkSchedule(t, c, schedule{Tick: 222, Sent: 12, MaxInFlight: 1, Instrs: []uint64{38, 33, 33, 33}})
}

// TestTokenRingRunsAgain runs the ring to quiescence, starts a second
// token from the host on node 2 and runs again: every node is parked
// when the second run starts, so a run that kept the first run's
// parked set would never step node 2.
func TestTokenRingRunsAgain(t *testing.T) {
	const n, limit = 4, 12
	c, ms := newRing(t, n, limit, false)
	if err := ms[0].Inject(machine.Low, []word.Word{ringAddr, word.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ms[2].Inject(machine.Low, []word.Word{ringAddr, word.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := ms[1].Mem.LoadInt(gResult); got != limit {
		t.Errorf("second token's result = %d, want %d", got, limit)
	}
	checkSchedule(t, c, schedule{Tick: 353, Sent: 19, MaxInFlight: 1, Instrs: []uint64{60, 49, 55, 55}})
}

// TestNodeTrapStopsRun divides by zero on node 2 of the token ring: the
// run stops at that instruction with the machine's trap text.
func TestNodeTrapStopsRun(t *testing.T) {
	const n, limit = 4, 12
	c, ms := newRing(t, n, limit, true)
	for i, m := range ms {
		m.Mem.Store(gDivisor, word.Int(int64(min(i^2, 1))))
	}
	if err := ms[0].Inject(machine.Low, []word.Word{ringAddr, word.Int(0)}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(0)
	if !errors.Is(err, machine.ErrTrap) {
		t.Fatalf("err = %v, want a machine trap", err)
	}
	const want = "machine trap: divide by zero (node 2, low ip=0x100008 high ip=0x0 after 3 instructions)"
	if err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if !ms[2].Halted() {
		t.Error("trapped node not halted")
	}
	checkSchedule(t, c, schedule{Tick: 42, Sent: 2, MaxInFlight: 1, Instrs: []uint64{13, 13, 3, 0}})
}

// TestScatterGather has node 0 send one value to every peer; each peer
// doubles it and replies; node 0 accumulates and counts the replies.
func TestScatterGather(t *testing.T) {
	const n = 6
	sys := asm.NewSys()
	sys.Halt()
	user := asm.NewUser()
	// Peer handler: [h, value, replyNode] -> send 2*value back.
	user.Label("work")
	user.LD(0, isa.RMsg, 4)
	user.MulI(0, 0, 2)
	user.LD(1, isa.RMsg, 8)
	user.MsgI(machine.Low)
	user.MsgDest(1)
	user.SendWALabel("gather")
	user.SendW(0)
	user.SendE()
	user.Suspend()
	// Gather handler on node 0: accumulate, count.
	user.Label("gather")
	user.LD(0, isa.RMsg, 4)
	user.LDAbs(1, gAccum)
	user.Add(1, 1, 0)
	user.STAbs(gAccum, 1)
	user.LDAbs(0, gCount)
	user.AddI(0, 0, 1)
	user.STAbs(gCount, 0)
	user.LDAbs(1, gNPeers)
	user.BNE(0, 1, "gather.more")
	user.LDAbs(1, gAccum)
	user.STAbs(gResult, 1)
	user.Label("gather.more")
	user.Suspend()
	// Scatter loop on node 0: [h, nextPeer] sends value=peer to each
	// peer 1..n-1 by self-forwarding.
	user.Label("scatter")
	user.LD(0, isa.RMsg, 4) // peer index
	user.LDAbs(1, gNPeers)
	user.BGT(0, 1, "scatter.done")
	user.MsgI(machine.Low)
	user.MsgDest(0)
	user.SendWALabel("work")
	user.SendW(0)  // value = peer id
	user.SendWI(0) // reply to node 0
	user.SendE()
	user.AddI(0, 0, 1)
	user.MsgI(machine.Low)
	user.SendWALabel("scatter") // local self-message
	user.SendW(0)
	user.SendE()
	user.Label("scatter.done")
	user.Suspend()
	if err := sys.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := user.Finish(); err != nil {
		t.Fatal(err)
	}
	code := machine.NewCodeStore(sys.Code(), user.Code())
	ms := newNodes(t, n, code)
	ms[0].Mem.Store(gNPeers, word.Int(n-1))
	c, err := New(ms, netsim.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms[0].Inject(machine.Low, []word.Word{word.Ptr(user.Addr("scatter")), word.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for p := 1; p < n; p++ {
		want += int64(2 * p)
	}
	if got := ms[0].Mem.LoadInt(gResult); got != want {
		t.Errorf("gathered sum = %d, want %d", got, want)
	}
	checkSchedule(t, c, schedule{Tick: 143, Sent: 10, MaxInFlight: 2, Instrs: []uint64{131, 9, 9, 9, 9, 9}})
}

// TestServiceFaultBecomesError panics in the Service hook on the first
// delivery to node 2: the run returns a trap naming the destination and
// the tick instead of crashing the process.
func TestServiceFaultBecomesError(t *testing.T) {
	const n, limit = 4, 12
	c, ms := newRing(t, n, limit, false)
	c.Service = func(tick uint64, m *netsim.Message) (bool, error) {
		if m.Dst == 2 {
			panic("bad address")
		}
		return false, nil
	}
	if err := ms[0].Inject(machine.Low, []word.Word{ringAddr, word.Int(0)}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(0)
	if !errors.Is(err, machine.ErrTrap) {
		t.Fatalf("err = %v, want a machine trap", err)
	}
	const want = "cluster: machine trap: bad address (delivering to node 2 at tick 36)"
	if err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	checkSchedule(t, c, schedule{Tick: 36, Sent: 2, MaxInFlight: 1, Instrs: []uint64{11, 11, 0, 0}})
}

func TestTooManyMachines(t *testing.T) {
	code := buildRing(t, 1, false)
	ms := newNodes(t, 3, code)
	if _, err := New(ms, netsim.Config{Width: 1, Height: 2, Base: 1}); err == nil {
		t.Error("oversized cluster accepted")
	}
}

func TestTickLimit(t *testing.T) {
	// Two nodes ping-pong forever; the tick limit must fire.
	code := buildRing(t, 1<<40, false)
	ms := newNodes(t, 2, code)
	for i, m := range ms {
		m.Mem.Store(gNext, word.Int(int64((i+1)%2)))
	}
	c, err := New(ms, netsim.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ms[0].Inject(machine.Low, []word.Word{word.Ptr(mem.UserCodeBase), word.Int(0)})
	if err := c.Run(5000); err == nil {
		t.Error("tick limit did not fire")
	}
}

// TestClusterObservability runs the token ring with a shared sink and
// checks that the network and every node's machine report into it: one
// net.* sample per message, one in-flight span per message on the
// network tracks, and a result identical to the uninstrumented run.
func TestClusterObservability(t *testing.T) {
	const n, laps = 4, 3
	const limit = int64(n * laps)
	code := buildRing(t, limit, false)

	run := func(s *obs.Sink) *Cluster {
		ms := newNodes(t, n, code)
		for i, m := range ms {
			m.Mem.Store(gNext, word.Int(int64((i+1)%n)))
		}
		c, err := New(ms, netsim.DefaultConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			c.SetSink(s)
		}
		if err := ms[0].Inject(machine.Low, []word.Word{word.Ptr(mem.UserCodeBase), word.Int(0)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if s != nil {
			c.FinishMetrics()
		}
		return c
	}

	base := run(nil)
	s := obs.New(obs.WithEvents())
	obsRun := run(s)

	if got, want := obsRun.Machines[0].Mem.LoadInt(gResult), limit; got != want {
		t.Errorf("instrumented result = %d, want %d", got, want)
	}
	if base.Tick() != obsRun.Tick() || base.Net.Sent != obsRun.Net.Sent {
		t.Errorf("instrumented run diverged: ticks %d vs %d, sent %d vs %d",
			base.Tick(), obsRun.Tick(), base.Net.Sent, obsRun.Net.Sent)
	}

	r := s.Metrics
	if got := r.Counter("net.msgs").Value(); got != uint64(limit) {
		t.Errorf("net.msgs = %d, want %d", got, limit)
	}
	if got := r.Counter("net.delivered").Value(); got != uint64(limit) {
		t.Errorf("net.delivered = %d, want %d", got, limit)
	}
	if got := r.Histogram("net.latency").Count(); got != uint64(limit) {
		t.Errorf("net.latency has %d samples, want %d", got, limit)
	}
	// Every node retired instructions into the shared registry.
	var instrs uint64
	for _, m := range obsRun.Machines {
		instrs += m.Instructions()
	}
	if got := r.Counter("instrs.total").Value(); got != instrs {
		t.Errorf("instrs.total = %d, want %d", got, instrs)
	}

	spans := 0
	for _, e := range s.Events.Events() {
		if e.Ph == obs.PhComplete && e.Cat == "net" {
			spans++
		}
	}
	if spans != int(limit) {
		t.Errorf("network timeline has %d spans, want %d", spans, limit)
	}
}
