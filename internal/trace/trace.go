// Package trace consumes the execution engine's reference stream.
//
// A Recording is the engine's one reference sink: it captures the
// stream once — packed {kind:2, addr:30} words, four bytes per
// reference — with exact per-class counts (system/user x code/data,
// the paper's §3.1 classification). A Replayer runs the stream through
// cache pairs, bit-equivalent to probing every pair with every
// reference as it happens: fed by the recording's drain while the
// simulation records, so that only one chunk is ever held, or
// afterwards by Replay, which pulls the chunks of a kept recording or
// of its compacted bytes. A recording that has been replayed can
// Release its chunks to a pool, so the next simulation appends into
// recycled buffers.
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
// zero. The run finalizer folds no reference counts, so a recording's
// owner calls this.
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
