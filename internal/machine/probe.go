package machine

import (
	"jmtam/internal/isa"
	"jmtam/internal/obs"
	"jmtam/internal/queue"
)

// probe is the machine's resolved view of an obs.Sink. Metric handles
// are interned once at SetSink time so the per-event cost is a pointer
// dereference, and every hook site in the engine guards on m.probe ==
// nil so the disabled path costs one pointer test.
//
// The probe observes; it never feeds back into execution, so simulation
// results are identical with the sink attached or not.
type probe struct {
	sink *obs.Sink

	depth   [2]*obs.Histogram // queue.depth.{low,high}: messages buffered after each enqueue
	wait    [2]*obs.Histogram // queue.wait.{low,high}: enqueue -> dispatch instructions
	handler [2]*obs.Histogram // handler.latency.{low,high}: dispatch -> suspend instructions
	inlet   *obs.Histogram    // inlet.latency: inlet entry -> suspend instructions
	readyG  *obs.Gauge        // ready.frames level
	readyH  *obs.Histogram    // ready.frames depth after each enqueue

	posts     *obs.Counter // post.calls
	frameEnqs *obs.Counter // ready.enqueues
	lcvPush   *obs.Counter
	lcvPop    *obs.Counter
	rcvPush   *obs.Counter
	rcvPop    *obs.Counter
	priSw     *obs.Counter // pri.switches

	enqTs   [2]map[uint64]uint64 // Msg.Seq -> enqueue instruction count
	dispTs  [2]uint64            // dispatch instruction count per priority
	dispIP  [2]uint32            // handler entry address per priority
	dispOn  [2]bool
	inletTs [2]uint64
	inletOn [2]bool

	lastPri    int
	havePri    bool
	readyDepth int64
}

var handlerName = [2]string{"handler p0", "handler p1"}
var priSwitchName = [2]string{"switch to low", "switch to high"}

// SetSink attaches an observability sink; nil detaches. The machine
// resolves metric handles eagerly and, when the sink carries an event
// buffer, labels its timeline tracks.
func (m *Machine) SetSink(s *obs.Sink) {
	if s == nil {
		m.probe = nil
		return
	}
	p := &probe{sink: s}
	r := s.Metrics
	p.depth[Low] = r.Histogram("queue.depth.low")
	p.depth[High] = r.Histogram("queue.depth.high")
	p.wait[Low] = r.Histogram("queue.wait.low")
	p.wait[High] = r.Histogram("queue.wait.high")
	p.handler[Low] = r.Histogram("handler.latency.low")
	p.handler[High] = r.Histogram("handler.latency.high")
	p.inlet = r.Histogram("inlet.latency")
	p.readyG = r.Gauge("ready.frames")
	p.readyH = r.Histogram("ready.frames")
	p.posts = r.Counter("post.calls")
	p.frameEnqs = r.Counter("ready.enqueues")
	p.lcvPush = r.Counter("lcv.push")
	p.lcvPop = r.Counter("lcv.pop")
	p.rcvPush = r.Counter("rcv.push")
	p.rcvPop = r.Counter("rcv.pop")
	p.priSw = r.Counter("pri.switches")
	p.enqTs[Low] = make(map[uint64]uint64)
	p.enqTs[High] = make(map[uint64]uint64)
	if s.Events != nil {
		pid := int32(m.nodeID)
		s.Events.SetThreadName(pid, obs.TrackLow, "pri-0 handlers")
		s.Events.SetThreadName(pid, obs.TrackHigh, "pri-1 handlers")
		s.Events.SetThreadName(pid, obs.TrackQuanta, "quanta")
		s.Events.SetThreadName(pid, obs.TrackInlets, "inlets")
	}
	m.probe = p
}

// Sink returns the attached observability sink, or nil.
func (m *Machine) Sink() *obs.Sink {
	if m.probe == nil {
		return nil
	}
	return m.probe.sink
}

// flowID correlates one queued message's send with its dispatch across
// the whole cluster: node and priority disambiguate the per-queue
// sequence numbers.
func flowID(node, pri int, seq uint64) uint64 {
	return uint64(node)<<33 | uint64(pri)<<32 | (seq & 0xffffffff)
}

// enqueue records a message entering the hardware queue: depth sample,
// timestamp for the wait histogram, and the flow-arrow tail.
func (p *probe) enqueue(node, pri int, msg queue.Msg, now uint64, depth int) {
	p.depth[pri].Observe(uint64(depth))
	p.enqTs[pri][msg.Seq] = now
	if ev := p.sink.Events; ev != nil {
		ev.FlowStart("msg", "queue", int32(node), int32(pri), now, flowID(node, pri, msg.Seq))
	}
}

// dispatch records the hardware beginning to service a message: the
// flow-arrow head and the start of the handler span.
func (p *probe) dispatch(node, pri int, msg queue.Msg, ip uint32, now uint64) {
	// A message enqueued before the sink attached (e.g. the boot
	// message injected at build time) has no recorded tail; emitting a
	// flow head for it would dangle.
	seen := false
	if enq, ok := p.enqTs[pri][msg.Seq]; ok {
		p.wait[pri].Observe(now - enq)
		delete(p.enqTs[pri], msg.Seq)
		seen = true
	}
	p.dispTs[pri] = now
	p.dispIP[pri] = ip
	p.dispOn[pri] = true
	if ev := p.sink.Events; ev != nil && seen {
		ev.FlowFinish("msg", "queue", int32(node), int32(pri), now, flowID(node, pri, msg.Seq))
	}
}

// suspend closes the handler span opened at dispatch and any inlet span
// opened by a MarkInletStart since.
func (p *probe) suspend(node, pri int, now uint64, depthAfter int) {
	if p.dispOn[pri] {
		p.dispOn[pri] = false
		p.handler[pri].Observe(now - p.dispTs[pri])
		if ev := p.sink.Events; ev != nil {
			ev.DurationArg(handlerName[pri], "machine", int32(node), int32(pri),
				p.dispTs[pri], now-p.dispTs[pri], "ip", uint64(p.dispIP[pri]))
		}
	}
	if p.inletOn[pri] {
		p.inletOn[pri] = false
		p.inlet.Observe(now - p.inletTs[pri])
		if ev := p.sink.Events; ev != nil {
			ev.Duration("inlet", "tam", int32(node), obs.TrackInlets,
				p.inletTs[pri], now-p.inletTs[pri])
		}
	}
	_ = depthAfter
}

// priSwitch records the engine changing priority level.
func (p *probe) priSwitch(node, pri int, now uint64) {
	if p.havePri {
		p.priSw.Add(1)
		if ev := p.sink.Events; ev != nil {
			ev.Instant(priSwitchName[pri], "machine", int32(node), obs.TrackLow, now)
		}
	}
	p.havePri = true
	p.lastPri = pri
}

// inletEnter opens an inlet span (closed at the next suspend at pri).
func (p *probe) inletEnter(pri int, now uint64) {
	p.inletTs[pri] = now
	p.inletOn[pri] = true
}

// frameDeq records a frame leaving the ready queue (scheduler
// activation).
func (p *probe) frameDeq() {
	if p.readyDepth > 0 {
		p.readyDepth--
	}
	p.readyG.Set(p.readyDepth)
}

// mark dispatches the runtime-operation mark kinds that carry no
// granularity semantics.
func (p *probe) mark(k isa.MarkKind) {
	switch k {
	case isa.MarkPost:
		p.posts.Add(1)
	case isa.MarkFrameEnq:
		p.frameEnqs.Add(1)
		p.readyDepth++
		p.readyG.Set(p.readyDepth)
		p.readyH.Observe(uint64(p.readyDepth))
	case isa.MarkLCVPush:
		p.lcvPush.Add(1)
	case isa.MarkLCVPop:
		p.lcvPop.Add(1)
	case isa.MarkRCVPush:
		p.rcvPush.Add(1)
	case isa.MarkRCVPop:
		p.rcvPop.Add(1)
	}
}

// finishQueues records the final queue high-water gauges; called by the
// simulation driver after the run.
func (m *Machine) finishQueues() {
	p := m.probe
	if p == nil {
		return
	}
	r := p.sink.Metrics
	r.Gauge("queue.highwater.low").Set(int64(m.queues[Low].HighWater()))
	r.Gauge("queue.highwater.high").Set(int64(m.queues[High].HighWater()))
}

// FinishMetrics flushes end-of-run machine-level metrics into the sink:
// queue high-water marks, total instructions and the per-class dynamic
// instruction mix.
func (m *Machine) FinishMetrics() {
	p := m.probe
	if p == nil {
		return
	}
	m.finishQueues()
	r := p.sink.Metrics
	r.Counter("instrs.total").Add(m.instrs)
	for op, n := range m.opCounts {
		if n != 0 {
			r.Counter("instr." + isa.Op(op).Class()).Add(n)
		}
	}
}
