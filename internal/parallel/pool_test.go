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
	// acquire takes a slot unless the pool stays full for a moment.
	acquire := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		return p.Acquire(ctx)
	}
	if acquire() != nil || acquire() != nil {
		t.Fatal("could not fill an empty pool")
	}
	if p.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", p.InUse())
	}
	if err := acquire(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on a full pool = %v, want deadline exceeded", err)
	}
	p.Release()
	if err := acquire(); err != nil {
		t.Fatalf("Acquire after Release = %v", err)
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
