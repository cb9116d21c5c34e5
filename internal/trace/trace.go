// Package trace consumes the execution engine's reference stream.
//
// A Collector counts fetches, reads and writes by reference class
// (system/user x code/data, the paper's §3.1 classification) and fans
// every reference out to any number of cache pairs, so one simulation
// pass evaluates every cache geometry in the study simultaneously.
//
// A Recording instead captures the stream once — packed {kind:2,
// addr:30} words, four bytes per reference — and replays it through
// cache pairs afterwards, turning the geometry fan-out into independent
// passes that a worker pool can run concurrently. Replay is
// bit-equivalent to the inline Collector fan-out.
package trace

import (
	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
)

// Counts aggregates reference counts by class.
type Counts struct {
	Fetches [mem.NumClasses]uint64
	Reads   [mem.NumClasses]uint64
	Writes  [mem.NumClasses]uint64
}

// TotalFetches returns instruction fetches across classes.
func (c *Counts) TotalFetches() uint64 {
	var t uint64
	for _, v := range c.Fetches {
		t += v
	}
	return t
}

// TotalReads returns data reads across classes.
func (c *Counts) TotalReads() uint64 {
	var t uint64
	for _, v := range c.Reads {
		t += v
	}
	return t
}

// TotalWrites returns data writes across classes.
func (c *Counts) TotalWrites() uint64 {
	var t uint64
	for _, v := range c.Writes {
		t += v
	}
	return t
}

// Add accumulates o into c, class by class.
func (c *Counts) Add(o *Counts) {
	for cls := range c.Fetches {
		c.Fetches[cls] += o.Fetches[cls]
		c.Reads[cls] += o.Reads[cls]
		c.Writes[cls] += o.Writes[cls]
	}
}

// AddTo folds the counts into an observability registry as
// <prefix>ref.{fetch,read,write}.<class> counters, created even when
// zero. A recording that replaces the inline collector leaves the run
// finalizer nothing to fold, so its owner calls this instead.
func (c *Counts) AddTo(r *obs.Registry, prefix string) {
	for cls := mem.Class(0); cls < mem.NumClasses; cls++ {
		name := cls.String()
		r.Counter(prefix + "ref.fetch." + name).Add(c.Fetches[cls])
		r.Counter(prefix + "ref.read." + name).Add(c.Reads[cls])
		r.Counter(prefix + "ref.write." + name).Add(c.Writes[cls])
	}
}

// Pair is a matched instruction/data cache pair of one geometry, as in
// the paper's "separate data and instruction caches".
type Pair struct {
	I *cache.Cache
	D *cache.Cache
}

// NewPair builds an I/D pair sharing one geometry.
func NewPair(cfg cache.Config) (Pair, error) {
	ic, err := cache.New(cfg)
	if err != nil {
		return Pair{}, err
	}
	dc, err := cache.New(cfg)
	if err != nil {
		return Pair{}, err
	}
	return Pair{I: ic, D: dc}, nil
}

// Misses returns combined I+D misses for the pair.
func (p Pair) Misses() uint64 { return p.I.Stats().Misses + p.D.Stats().Misses }

// Writebacks returns the data cache's writeback count (instruction caches
// are read-only and never write back).
func (p Pair) Writebacks() uint64 { return p.D.Stats().Writebacks }

// Collector implements machine.Tracer. The zero value counts references;
// attach cache pairs with AddPair.
type Collector struct {
	Counts
	Pairs []Pair
}

// AddPair attaches a cache pair of the given geometry.
func (c *Collector) AddPair(cfg cache.Config) (Pair, error) {
	p, err := NewPair(cfg)
	if err != nil {
		return Pair{}, err
	}
	c.Pairs = append(c.Pairs, p)
	return p, nil
}

// Fetch records an instruction fetch.
func (c *Collector) Fetch(addr uint32) {
	c.Fetches[mem.Classify(addr)]++
	for i := range c.Pairs {
		c.Pairs[i].I.Access(addr, false)
	}
}

// Read records a data read.
func (c *Collector) Read(addr uint32) {
	c.Reads[mem.Classify(addr)]++
	for i := range c.Pairs {
		c.Pairs[i].D.Access(addr, false)
	}
}

// Write records a data write.
func (c *Collector) Write(addr uint32) {
	c.Writes[mem.Classify(addr)]++
	for i := range c.Pairs {
		c.Pairs[i].D.Access(addr, true)
	}
}

// Cycles returns total execution cycles for the pair at index i under the
// given miss penalty: one cycle per instruction plus penalty cycles per
// I- or D-miss. When countWritebacks is true, dirty evictions also cost a
// memory transaction.
func (c *Collector) Cycles(i int, missPenalty int, countWritebacks bool) uint64 {
	p := c.Pairs[i]
	cycles := c.TotalFetches() + uint64(missPenalty)*p.Misses()
	if countWritebacks {
		cycles += uint64(missPenalty) * p.Writebacks()
	}
	return cycles
}
