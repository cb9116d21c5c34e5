package netsim

import (
	"testing"
	"testing/quick"

	"jmtam/internal/word"
)

func TestHopsManhattan(t *testing.T) {
	n := New(Config{Width: 4, Height: 4, Base: 1})
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 3, 3},  // same row
		{0, 12, 3}, // same column
		{0, 15, 6}, // opposite corner
		{5, 10, 2}, // (1,1) -> (2,2)
		{15, 0, 6}, // symmetric
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsSymmetryProperty(t *testing.T) {
	n := New(Config{Width: 5, Height: 3, Base: 1})
	f := func(a, b uint8) bool {
		x, y := int(a)%n.Nodes(), int(b)%n.Nodes()
		return n.Hops(x, y) == n.Hops(y, x) && n.Hops(x, x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyModel(t *testing.T) {
	n := New(Config{Width: 4, Height: 1, Base: 10, PerHop: 3, PerWord: 2})
	if got := n.Latency(0, 3, 5); got != 10+3*3+2*5 {
		t.Errorf("latency = %d", got)
	}
}

func TestDeliveryOrderAndTiming(t *testing.T) {
	n := New(Config{Width: 4, Height: 1, Base: 2, PerHop: 2, PerWord: 0})
	ws := []word.Word{word.Int(1)}
	// Far message sent first, near message second: near arrives first.
	if err := n.Send(0, 3, 0, ws, 0); err != nil { // due at 8
		t.Fatal(err)
	}
	if err := n.Send(0, 1, 0, ws, 0); err != nil { // due at 4
		t.Fatal(err)
	}
	var order []int
	deliver := func(now uint64) {
		n.Deliver(now, func(m *Message) error {
			order = append(order, m.Dst)
			return nil
		})
	}
	deliver(3)
	if len(order) != 0 {
		t.Fatal("delivered before due time")
	}
	deliver(4)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order after t=4: %v", order)
	}
	deliver(100)
	if len(order) != 2 || order[1] != 3 {
		t.Fatalf("final order: %v", order)
	}
	if n.Pending() != 0 || n.Delivered != 2 {
		t.Error("bookkeeping wrong")
	}
}

func TestFIFOBetweenSamePair(t *testing.T) {
	n := New(Config{Width: 2, Height: 1, Base: 1})
	for i := int64(0); i < 10; i++ {
		if err := n.Send(0, 1, 0, []word.Word{word.Int(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	n.Deliver(100, func(m *Message) error {
		got = append(got, m.Words[0].AsInt())
		return nil
	})
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("delivery order %v not FIFO", got)
		}
	}
}

func TestSendCopiesWords(t *testing.T) {
	n := New(Config{Width: 2, Height: 1, Base: 1})
	ws := []word.Word{word.Int(1)}
	n.Send(0, 1, 0, ws, 0)
	ws[0] = word.Int(99) // mutate the caller's slice
	n.Deliver(100, func(m *Message) error {
		if m.Words[0].AsInt() != 1 {
			t.Error("network aliased the sender's buffer")
		}
		return nil
	})
}

func TestBadDestination(t *testing.T) {
	n := New(Config{Width: 2, Height: 2, Base: 1})
	if err := n.Send(0, 4, 0, []word.Word{word.Int(1)}, 0); err == nil {
		t.Error("out-of-mesh destination accepted")
	}
	if err := n.Send(0, -1, 0, []word.Word{word.Int(1)}, 0); err == nil {
		t.Error("negative destination accepted")
	}
}

func TestDefaultConfigCovers(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 5, 9, 16, 17} {
		cfg := DefaultConfig(nodes)
		if cfg.Width*cfg.Height < nodes {
			t.Errorf("DefaultConfig(%d) = %dx%d too small", nodes, cfg.Width, cfg.Height)
		}
	}
}

func TestNextDue(t *testing.T) {
	n := New(DefaultConfig(4))
	if _, ok := n.NextDue(); ok {
		t.Error("empty network reports a due time")
	}
	n.Send(0, 1, 0, []word.Word{word.Int(1)}, 10)
	due, ok := n.NextDue()
	if !ok || due <= 10 {
		t.Errorf("NextDue = %d, %v", due, ok)
	}
}

// TestDeliverRecyclesMessages checks that a delivered message, word
// buffer included, is reused only after Deliver's callback returns: a
// reply sent from inside the callback must leave the message being
// delivered intact, and a steady send/deliver cycle allocates nothing.
func TestDeliverRecyclesMessages(t *testing.T) {
	n := New(Config{Width: 2, Height: 1, Base: 1})
	req := []word.Word{word.Int(1), word.Int(2), word.Int(3)}
	var got [][]word.Word
	now := uint64(0)
	cycle := func() {
		now += 100
		err := n.Deliver(now, func(m *Message) error {
			if m.Dst == 1 {
				if err := n.Send(1, 0, 0, []word.Word{word.Int(9)}, now); err != nil {
					return err
				}
			}
			got = append(got, m.Words)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Send(0, 1, 0, req, now); err != nil {
		t.Fatal(err)
	}
	cycle()
	if len(got) != 1 || len(got[0]) != 3 || got[0][2] != word.Int(3) {
		t.Fatalf("request delivered as %v, want %v", got, req)
	}
	cycle()
	if len(got) != 2 || len(got[1]) != 1 || got[1][0] != word.Int(9) {
		t.Fatalf("reply delivered as %v, want [9]", got[1:])
	}
	allocs := testing.AllocsPerRun(100, func() {
		got = got[:0]
		if err := n.Send(0, 1, 0, req, now); err != nil {
			t.Fatal(err)
		}
		cycle()
		cycle()
	})
	if allocs != 0 {
		t.Errorf("send/deliver cycle allocates %.1f times, want 0", allocs)
	}
	if n.Pending() != 0 || n.Delivered != n.Sent {
		t.Errorf("pending %d, delivered %d of %d sent", n.Pending(), n.Delivered, n.Sent)
	}
}
