// Package stats derives the paper's granularity metrics from runtime
// events: threads per quantum (TPQ), instructions per thread (IPT) and
// instructions per quantum (IPQ), plus geometric means and MD/AM cycle
// ratios.
//
// Following §3.2, a quantum is a maximal run of consecutively executed
// threads that belong to the same frame; in the MD implementation this
// "can involve emptying the LCV multiple times if subsequent messages are
// destined for the same frame", which the frame-transition rule captures
// for both implementations.
package stats

import (
	"math"

	"jmtam/internal/obs"
)

// Granularity accumulates thread, inlet, quantum and activation counts
// from a machine (machine.SetObserver). The zero value is ready to use.
type Granularity struct {
	Threads     uint64
	Inlets      uint64
	Quanta      uint64
	Activations uint64
	Dispatches  [2]uint64

	// TotalInstrs must be set (from Machine.Instructions) when the run
	// completes, before calling the derived-metric methods.
	TotalInstrs uint64

	// QuantumHist distributes quantum sizes in threads; QuantumInstrs
	// distributes quantum lengths in instructions (start of first thread
	// to start of the quantum-ending transition). Both are log2-bucketed
	// obs histograms, the repo's one histogram implementation.
	QuantumHist   obs.Histogram
	QuantumInstrs obs.Histogram

	// Sink, when non-nil before the run, receives one duration event per
	// quantum (Node selects the timeline process, 0 on a uniprocessor).
	Sink *obs.Sink
	Node int

	lastFrame uint32
	haveFrame bool

	// quantum size tracking
	curThreads uint64
	qStart     uint64 // instruction count at the quantum's first thread
	lastInstrs uint64
}

// MaxQuantum returns the thread count of the largest quantum observed.
func (g *Granularity) MaxQuantum() uint64 { return g.QuantumHist.MaxV }

// ThreadStart records entry to a thread body belonging to frame.
func (g *Granularity) ThreadStart(frame uint32, instrs uint64) {
	g.Threads++
	g.lastInstrs = instrs
	if !g.haveFrame || frame != g.lastFrame {
		g.endQuantum(instrs)
		g.Quanta++
		g.lastFrame = frame
		g.haveFrame = true
		g.qStart = instrs
	}
	g.curThreads++
}

func (g *Granularity) endQuantum(now uint64) {
	if g.curThreads == 0 {
		return
	}
	g.QuantumHist.Observe(g.curThreads)
	g.QuantumInstrs.Observe(now - g.qStart)
	if g.Sink != nil && g.Sink.Events != nil {
		g.Sink.Events.DurationArg("quantum", "tam", int32(g.Node), obs.TrackQuanta,
			g.qStart, now-g.qStart, "threads", g.curThreads)
	}
	g.curThreads = 0
}

// InletStart records entry to an inlet.
func (g *Granularity) InletStart(uint32, uint64) { g.Inlets++ }

// Activate records an AM scheduler frame activation.
func (g *Granularity) Activate(uint32, uint64) { g.Activations++ }

// Dispatch records a hardware message dispatch at the given priority.
func (g *Granularity) Dispatch(pri int, _ uint64) {
	if pri == 0 || pri == 1 {
		g.Dispatches[pri]++
	}
}

// Finish closes the trailing quantum; call once after the run, after
// TotalInstrs has been set (the trailing quantum ends at the run's final
// instruction count).
func (g *Granularity) Finish() {
	end := g.TotalInstrs
	if end < g.lastInstrs {
		end = g.lastInstrs
	}
	g.endQuantum(end)
}

// TPQ returns threads per quantum.
func (g *Granularity) TPQ() float64 { return ratio(g.Threads, g.Quanta) }

// IPT returns instructions per thread (all instructions, including
// runtime and inlet instructions, attributed over threads — the
// convention under which Table 2's IPQ ≈ TPQ x IPT).
func (g *Granularity) IPT() float64 { return ratio(g.TotalInstrs, g.Threads) }

// IPQ returns instructions per quantum.
func (g *Granularity) IPQ() float64 { return ratio(g.TotalInstrs, g.Quanta) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values
// (which would otherwise poison the logarithm); it returns 0 for an
// empty or all-non-positive input.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
