package bench

import (
	"testing"
	"time"
)

// TestCalibrator: the calibrator samples its kernel through the run, and
// a CPU meter leaves the calibrator's own CPU time out.
func TestCalibrator(t *testing.T) {
	cal := startCalibrator()
	defer cal.close()
	meter := cal.meter()
	time.Sleep(10 * calEvery)
	idle := meter.ms()
	n, medianMS := cal.samples()
	if n < 5 || medianMS <= 0 {
		t.Fatalf("%d kernel runs with median %v ms in %v", n, medianMS, 10*calEvery)
	}
	if spent := millis(cal.spent()); spent < float64(n-1)*medianMS/2 {
		t.Errorf("calibrator thread spent %v ms on %d runs of %v ms", spent, n, medianMS)
	}
	// The process only slept, so what the meter saw (scaled by a factor
	// near one) is the runtime's own housekeeping, well under the kernel
	// runs it left out.
	if idle > float64(n)*medianMS/2 {
		t.Errorf("meter counted %v ms over a sleep; the calibrator's %d runs took %v ms each", idle, n, medianMS)
	}
	f := cal.factor(meter.start, time.Now())
	cal.mu.Lock()
	want := calRefMS / Mean(cal.ms)
	cal.mu.Unlock()
	if f <= 0 || f > 2*want || f < want/2 {
		t.Errorf("factor %v, want near %v", f, want)
	}
}
