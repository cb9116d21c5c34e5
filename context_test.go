package jmtam

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunContextPreCancelled checks an already-cancelled context stops
// a run before any compilation happens.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, MD, Benchmark("ss", 30), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels a large simulation shortly after
// it starts and checks the step loop notices within its check interval
// rather than running the benchmark to completion.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, MD, Benchmark("ss", 3000), Options{},
		CacheConfig{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// ss 3000 takes far longer than this uncancelled; generous bound to
	// stay robust on slow CI machines.
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancelled run returned after %v", d)
	}
}

// TestSweepExecuteContextCancelled checks the sweep engine surfaces a
// cancelled context instead of executing its grid.
func TestSweepExecuteContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := NewQuickSweep()
	sw.SizesKB = []int{8}
	sw.Assocs = []int{4}
	if _, err := sw.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
