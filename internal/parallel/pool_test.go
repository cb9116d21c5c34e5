package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBounds(t *testing.T) {
	p := NewPool(2)
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", p.Cap())
	}
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("could not fill an empty pool")
	}
	if p.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", p.InUse())
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed after Release")
	}
	p.Release()
	p.Release()
}

func TestPoolAcquireBlocksUntilRelease(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- p.Acquire(context.Background()) }()
	select {
	case <-acquired:
		t.Fatal("Acquire returned while the pool was full")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire did not return after Release")
	}
	p.Release()
}

func TestPoolAcquireCancelled(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on cancelled ctx = %v, want context.Canceled", err)
	}
	if p.InUse() != 1 {
		t.Errorf("InUse = %d after failed acquire, want 1", p.InUse())
	}
	p.Release()
}

func TestPoolClosedAcquire(t *testing.T) {
	p := NewPool(2)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Acquire(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Acquire on closed pool = %v, want ErrPoolClosed", err)
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a closed pool")
	}
	if p.InUse() != 1 {
		t.Errorf("InUse = %d after rejected acquires, want 1", p.InUse())
	}
	p.Release()
}

func TestPoolCloseWakesBlockedAcquire(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- p.Acquire(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("blocked Acquire = %v, want ErrPoolClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake the blocked Acquire")
	}
	p.Release()
}

func TestPoolDrainWaitsForRelease(t *testing.T) {
	p := NewPool(2)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		p.Release()
	}()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 0 {
		t.Errorf("InUse = %d after Drain, want 0", p.InUse())
	}
}

func TestPoolDrainBounded(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a held slot = %v, want deadline exceeded", err)
	}
	p.Release()
	// A later Drain with the slot back succeeds immediately.
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPoolDrainIdle(t *testing.T) {
	p := NewPool(4)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Acquire after Drain = %v, want ErrPoolClosed", err)
	}
}

func TestForEachContextCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachContext(ctx, 1, 100, func(i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d tasks after cancellation at task 3", got)
	}
}

// TestForEachContextCancelParallel pins the cancellation contract under
// any schedule: once cancel() has returned, the cancelling worker starts
// no more tasks and every other worker starts at most one (it may have
// checked the context just before), so at most workers-1 in all.
func TestForEachContextCancelParallel(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	var ran, late atomic.Int64
	var cancelled atomic.Bool
	err := ForEachContext(ctx, workers, 1000, func(i int) error {
		if cancelled.Load() {
			late.Add(1)
		}
		if ran.Add(1) == 10 {
			cancel()
			cancelled.Store(true)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := late.Load(); got > workers-1 {
		t.Errorf("%d tasks started after cancel() returned, want at most %d", got, workers-1)
	}
}

func TestForEachContextTaskErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachContext(context.Background(), 1, 10, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error", err)
	}
}
