// Package queue implements the J-Machine's hardware message queues.
//
// Each priority level owns one queue. Queue storage lives in the
// simulated system-data segment: the hardware buffers arriving message
// words directly into the top of the memory hierarchy, exactly as on the
// MDP, so enqueued words generate memory writes and handlers reading
// arguments through the message base register touch queue addresses.
// This is what makes the Message-Driven implementation's "consume
// arguments straight from the queue" optimization visible to the cache
// simulator.
//
// The queue is a true advancing ring, as on the MDP: the tail keeps
// moving forward even when the queue drains, so under steady message
// traffic the buffered words sweep through the whole queue region. This
// matters for the evaluation — the Message-Driven implementation keeps
// the queue occupied (it is the task queue), so its argument reads and
// hardware buffering touch an ever-advancing window of addresses, a data
// locality cost the Active Messages implementation largely avoids by
// consuming messages immediately. Messages are kept contiguous so that
// handler code can address arguments at fixed offsets from the message
// base; the ring wraps only between messages.
//
// Place only reserves a message's words and records it as pending; the
// machine stores the words itself, in one pass. Pending messages sit in
// a ring that keeps its capacity, so a queue that never drains stops
// allocating once it has held its peak number of messages. A message
// that does not fit is an error wrapping ErrOverflow that names the
// queue's high-water mark.
package queue

import (
	"errors"
	"fmt"

	"jmtam/internal/mem"
)

// DefaultCapWords is the maximum queue capacity in words (the storage
// reserved in the memory map); JMachineCapWords is the default capacity,
// matching the MDP's 4-Kbyte hardware queues. The paper runs only
// programs that fit ("we verified that substantial problems could be
// solved without using all the memory available for message queues");
// the high-water mark is recorded so that claim can be checked.
const (
	DefaultCapWords  = 1 << 14
	JMachineCapWords = 1 << 10
)

// ErrOverflow reports a message that does not fit in its queue. The
// paper ran only programs that fit, so an overflow is an outcome of
// running a program on too small a queue, not a simulator failure.
var ErrOverflow = errors.New("queue: overflow")

// Msg locates one buffered message: Base is the byte address of its first
// word, Len its length in words. Seq is the message's 1-based position in
// the queue's arrival order, which observability hooks use to correlate
// enqueue with dispatch.
type Msg struct {
	Base uint32
	Len  int
	Seq  uint64
}

// Queue is one hardware message queue. Construct with New.
type Queue struct {
	base     uint32 // byte address of queue storage
	capWords int

	tail int // next free word index

	// pending is a ring of the buffered messages, oldest at head; its
	// length is a power of two and grows only while the queue holds
	// more messages than ever before.
	pending []Msg
	head    int
	n       int

	occupied  int // words currently buffered
	highWater int // maximum of occupied over time
	enqueued  uint64
}

// New returns a queue whose storage begins at byte address base and holds
// capWords words.
func New(base uint32, capWords int) *Queue {
	if capWords <= 0 {
		capWords = DefaultCapWords
	}
	return &Queue{base: base, capWords: capWords}
}

// CapWords returns the queue capacity in words.
func (q *Queue) CapWords() int { return q.capWords }

// Len returns the number of pending messages.
func (q *Queue) Len() int { return q.n }

// HighWater returns the maximum number of words ever buffered at once.
func (q *Queue) HighWater() int { return q.highWater }

// Enqueued returns the total number of messages ever enqueued.
func (q *Queue) Enqueued() uint64 { return q.enqueued }

// Place reserves room for an n-word message and records it as the
// newest pending message, returning where the caller buffers its
// words. It returns an error if the queue cannot hold the message,
// which models queue overflow (the paper sidesteps overflow by running
// programs that fit; the simulator surfaces it as an error wrapping
// ErrOverflow).
func (q *Queue) Place(n int) (Msg, error) {
	if n == 0 {
		return Msg{}, fmt.Errorf("queue: empty message")
	}
	if n > q.capWords {
		return Msg{}, fmt.Errorf("%w: message of %d words exceeds capacity %d", ErrOverflow, n, q.capWords)
	}
	start := q.tail
	if q.n == 0 {
		// Ring semantics: the tail keeps advancing across idle
		// periods; wrap only when the message would run off the end.
		if start+n > q.capWords {
			start = 0
		}
	} else {
		// The occupied region runs from the oldest pending message to
		// the tail. When tail > first the occupancy is a single
		// interval [first, tail) and the free space is the ring's two
		// ends; otherwise the buffered words wrap around the end and
		// only [tail, first) is free.
		first := int(q.pending[q.head].Base-q.base) / mem.WordBytes
		if q.tail > first {
			switch {
			case start+n <= q.capWords:
				// Room before the end of the ring.
			case n <= first:
				// Wrap between messages: restart at the base.
				start = 0
			default:
				return Msg{}, q.overflow(n)
			}
		} else {
			if start+n > first {
				return Msg{}, q.overflow(n)
			}
		}
	}
	if q.n == len(q.pending) {
		q.grow()
	}
	q.tail = start + n
	m := Msg{Base: q.base + uint32(start)*mem.WordBytes, Len: n, Seq: q.enqueued + 1}
	q.pending[(q.head+q.n)&(len(q.pending)-1)] = m
	q.n++
	q.occupied += n
	if q.occupied > q.highWater {
		q.highWater = q.occupied
	}
	q.enqueued++
	return m, nil
}

// grow doubles the pending ring, unwrapping it to start at index 0.
func (q *Queue) grow() {
	ring := make([]Msg, max(8, 2*len(q.pending)))
	for i := 0; i < q.n; i++ {
		ring[i] = q.pending[(q.head+i)&(len(q.pending)-1)]
	}
	q.pending, q.head = ring, 0
}

func (q *Queue) overflow(n int) error {
	return fmt.Errorf("%w: no room for %d words (%d pending messages, %d/%d words, high water %d)",
		ErrOverflow, n, q.n, q.occupied, q.capWords, q.highWater)
}

// Front returns the oldest pending message without consuming it. The
// second result is false if the queue is empty.
func (q *Queue) Front() (Msg, bool) {
	if q.n == 0 {
		return Msg{}, false
	}
	return q.pending[q.head], true
}

// Consume removes the oldest pending message (called when the servicing
// task suspends, matching MDP semantics where the message is retired at
// suspend). The tail is left where it is: the ring advances.
func (q *Queue) Consume() {
	if q.n == 0 {
		panic("queue: consume on empty queue")
	}
	q.occupied -= q.pending[q.head].Len
	q.head = (q.head + 1) & (len(q.pending) - 1)
	q.n--
}
