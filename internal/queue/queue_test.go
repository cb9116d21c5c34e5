package queue

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"jmtam/internal/mem"
	"jmtam/internal/rng"
	"jmtam/internal/word"
)

// enqueue places ws in q and buffers its words into the map m, as the
// machine buffers them into simulated memory.
func enqueue(q *Queue, m map[uint32]word.Word, ws []word.Word) (Msg, error) {
	msg, err := q.Place(len(ws))
	if err == nil {
		for i, w := range ws {
			m[msg.Base+uint32(i)*mem.WordBytes] = w
		}
	}
	return msg, err
}

func wordsOf(vs ...int64) []word.Word {
	ws := make([]word.Word, len(vs))
	for i, v := range vs {
		ws[i] = word.Int(v)
	}
	return ws
}

func TestFIFOOrder(t *testing.T) {
	m := make(map[uint32]word.Word)
	q := New(0x1000, 64)
	for i := int64(0); i < 5; i++ {
		if _, err := enqueue(q, m, wordsOf(i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		msg, ok := q.Front()
		if !ok {
			t.Fatalf("queue empty at message %d", i)
		}
		if got := m[msg.Base].AsInt(); got != i {
			t.Errorf("message %d: first word = %d", i, got)
		}
		if msg.Len != 2 {
			t.Errorf("message %d: len = %d", i, msg.Len)
		}
		q.Consume()
	}
	if _, ok := q.Front(); ok {
		t.Error("queue not empty after consuming all messages")
	}
}

func TestRingAdvances(t *testing.T) {
	m := make(map[uint32]word.Word)
	q := New(0x1000, 64)
	msg1, _ := enqueue(q, m, wordsOf(1))
	q.Consume()
	msg2, _ := enqueue(q, m, wordsOf(2))
	if msg2.Base == msg1.Base {
		t.Error("ring did not advance across an idle period")
	}
}

func TestWrapBetweenMessages(t *testing.T) {
	m := make(map[uint32]word.Word)
	q := New(0x1000, 8)
	// Fill to near the end, consume, then enqueue something that must
	// wrap to the base.
	if _, err := enqueue(q, m, wordsOf(1, 2, 3, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	q.Consume()
	msg, err := enqueue(q, m, wordsOf(7, 8, 9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Base != 0x1000 {
		t.Errorf("wrapped message at %#x, want base %#x", msg.Base, 0x1000)
	}
	// Contiguity: all four words are addressable from the base.
	for i := int64(0); i < 4; i++ {
		if got := m[msg.Base+uint32(4*i)].AsInt(); got != 7+i {
			t.Errorf("word %d = %d, want %d", i, got, 7+i)
		}
	}
}

func TestOverflow(t *testing.T) {
	m := make(map[uint32]word.Word)
	q := New(0x1000, 8)
	if _, err := enqueue(q, m, wordsOf(1, 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := enqueue(q, m, wordsOf(6, 7, 8, 9)); err == nil {
		t.Error("overflow not detected")
	}
	// Draining frees the space.
	q.Consume()
	if _, err := enqueue(q, m, wordsOf(6, 7, 8, 9)); err != nil {
		t.Errorf("enqueue after drain failed: %v", err)
	}
}

func TestOversizeMessage(t *testing.T) {
	q := New(0x1000, 4)
	if _, err := enqueue(q, map[uint32]word.Word{}, make([]word.Word, 5)); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestEmptyMessageRejected(t *testing.T) {
	q := New(0x1000, 8)
	if _, err := enqueue(q, map[uint32]word.Word{}, nil); err == nil {
		t.Error("empty message accepted")
	}
}

func TestHighWater(t *testing.T) {
	m := make(map[uint32]word.Word)
	q := New(0x1000, 64)
	enqueue(q, m, wordsOf(1, 2, 3))
	enqueue(q, m, wordsOf(4, 5))
	q.Consume()
	q.Consume()
	if hw := q.HighWater(); hw != 5 {
		t.Errorf("high water = %d, want 5", hw)
	}
	if q.Enqueued() != 2 {
		t.Errorf("enqueued = %d, want 2", q.Enqueued())
	}
}

func TestConsumeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Consume on empty queue did not panic")
		}
	}()
	New(0x1000, 8).Consume()
}

// TestRandomTrafficProperty drives random enqueue/consume sequences and
// checks that every message is delivered intact, in order, from within
// the queue's address range.
func TestRandomTrafficProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		m := make(map[uint32]word.Word)
		const capWords = 32
		base := uint32(0x2000)
		q := New(base, capWords)
		next := int64(0)   // next value to enqueue
		expect := int64(0) // next value to consume
		for step := 0; step < 500; step++ {
			if src.Intn(2) == 0 {
				n := src.Intn(6) + 1
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = next
					next++
				}
				if _, err := enqueue(q, m, wordsOf(vals...)); err != nil {
					next -= int64(n) // overflow: roll back
				}
			} else if msg, ok := q.Front(); ok {
				if msg.Base < base || msg.Base+uint32(4*msg.Len) > base+capWords*mem.WordBytes {
					return false
				}
				for i := 0; i < msg.Len; i++ {
					if m[msg.Base+uint32(4*i)].AsInt() != expect {
						return false
					}
					expect++
				}
				q.Consume()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOverflowIsTyped requires both kinds of overflow, no room and a
// message larger than the queue, to match ErrOverflow, and the no-room
// text to name the high-water mark.
func TestOverflowIsTyped(t *testing.T) {
	q := New(0x1000, 8)
	if _, err := q.Place(5); err != nil {
		t.Fatal(err)
	}
	_, err := q.Place(4)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if !strings.Contains(err.Error(), "high water 5") {
		t.Errorf("overflow text %q does not name the high-water mark", err)
	}
	if _, err := q.Place(9); !errors.Is(err, ErrOverflow) {
		t.Errorf("oversize err = %v, want ErrOverflow", err)
	}
}

// TestSteadyTrafficAllocatesNothing keeps a queue that never empties
// busy: once its pending ring has grown to the peak number of messages,
// placing and consuming a message allocates nothing.
func TestSteadyTrafficAllocatesNothing(t *testing.T) {
	q := New(0x1000, 64)
	for i := 0; i < 3; i++ {
		if _, err := q.Place(2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := q.Place(2); err != nil {
			t.Fatal(err)
		}
		q.Consume()
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per enqueue/consume, want 0", allocs)
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
}
