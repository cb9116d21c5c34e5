package bench

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Calibration. The benchmark shares its host, and the host's speed moves
// with its neighbours' load: on the 2-vCPU host the baseline was measured
// on, the same sweep took 2.9 CPU-seconds in one minute and 5.3 in the
// next, in spells of a second or two, and ten runs of one workload spread
// by up to 49% in wall time. Two things make the end-to-end times steady:
//
//   - They are CPU times, not wall times: CPU time leaves out the time the
//     process waited for a core, which the other processes on the host
//     decide.
//   - They are scaled to a reference speed. Throughout a run a calibrator
//     thread times a fixed kernel — benchmark code, so no change to the
//     program moves it — every calEvery, and every CPU time the run
//     reports is multiplied by calRefMS over the kernel's mean time while
//     that CPU time was spent. The kernel slows with the host as the
//     program does, so the ratio cancels the host's speed. The calibrator's
//     own CPU time is left out of every CPU time measured.
//
// The kernel is compute-bound, as the simulator is: on that host a kernel
// whose data missed L2 slowed less than the sweeps did in busy spells,
// and one that stayed in L1 slowed as much. Sampling through the run,
// rather than between operations, is what follows the spells: with a
// dozen samples a run, the share of slow ones alone varied by ±7%.

const (
	// calWords is the kernel's memory, 16 KiB, which stays in L1.
	calWords = 1 << 11
	// calRefs is how many references one kernel run makes: about a
	// millisecond.
	calRefs = 1 << 17
	// calEvery is how often the calibrator runs the kernel, so it takes
	// about 4% of one core.
	calEvery = 25 * time.Millisecond
	// calRefMS is one kernel run's thread CPU time on the reference host,
	// a 2-vCPU virtual machine on an Intel Xeon (family 6, model 207) at a
	// quiet moment, so scaled times read as that host's CPU times.
	calRefMS = 0.93
)

// calibrator runs the kernel on its own locked thread every calEvery
// until closed, keeping when each run started and its thread CPU time.
type calibrator struct {
	tid  int
	mu   sync.Mutex
	at   []time.Time
	ms   []float64
	stop chan struct{}
	done chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(c.done)
		// Never unlocked: the thread exits with the goroutine.
		runtime.LockOSThread()
		c.tid = syscall.Gettid()
		close(ready)
		// The kernel runs on each CPU the process may use in turn, so the
		// samples cover every core the work runs on, not only the one the
		// scheduler finds idle. Without the CPU list it runs where the
		// scheduler puts it.
		cpus, _ := allowedCPUs()
		mem := make([]uint64, calWords)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			if len(cpus) > 1 {
				// A failed pin leaves this run where the last one was.
				_ = pinThread(cpus[i%len(cpus)])
			}
			at, start := time.Now(), cpuTime(clockThread)
			mem[0] += calKernel(mem)
			ms := millis(cpuTime(clockThread) - start)
			c.mu.Lock()
			c.at = append(c.at, at)
			c.ms = append(c.ms, ms)
			c.mu.Unlock()
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
		}
	}()
	<-ready
	return c
}

// close stops the calibrator and waits for its thread to exit.
func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// spent is the calibrator thread's CPU time so far.
func (c *calibrator) spent() time.Duration {
	return cpuTime(threadClock(c.tid))
}

// factor is what CPU time spent from from to to is multiplied by:
// calRefMS over the mean time of the kernel runs that started in that
// interval, or of all runs so far when none did.
func (c *calibrator) factor(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in []float64
	for i, at := range c.at {
		if !at.Before(from) && at.Before(to) {
			in = append(in, c.ms[i])
		}
	}
	if len(in) == 0 {
		in = c.ms
	}
	if m := Mean(in); m > 0 {
		return calRefMS / m
	}
	return 1
}

// samples is how many kernel runs the calibrator has made, and their
// median time.
func (c *calibrator) samples() (n int, medianMS float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ms), Median(c.ms)
}

// cpuMeter measures the process's CPU time from when it was made, less
// the calibrator's, scaled to the reference speed.
type cpuMeter struct {
	cal        *calibrator
	start      time.Time
	proc, self time.Duration
}

func (c *calibrator) meter() cpuMeter {
	return cpuMeter{c, time.Now(), cpuTime(clockProcess), c.spent()}
}

// ms is the scaled CPU time since the meter was made, in ms.
func (m cpuMeter) ms() float64 {
	cpu := cpuTime(clockProcess) - m.proc - (m.cal.spent() - m.self)
	return m.cal.factor(m.start, time.Now()) * millis(cpu)
}

// calKernel is a small trace-driven cache model: a stream of references,
// in sequential runs broken by jumps, to words of mem, each read (and
// every fourth one written) and looked up in a 4-way, 128-set LRU tag
// array of 64-byte blocks. The sequence of addresses is the same on every
// call, so every call does the same work.
func calKernel(mem []uint64) uint64 {
	const sets, ways = 128, 4
	var tags [sets][ways]uint64
	var used [sets][ways]uint32
	x := uint64(0x9e3779b97f4a7c15)
	var addr, sum uint64
	var clock, misses uint32
	for i := 0; i < calRefs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 == 0 {
			addr = x >> 20 % calWords
		} else {
			addr = (addr + 1) % calWords
		}
		v := mem[addr]
		if x&3 == 0 {
			mem[addr] = v + x
		}
		sum += v
		blk := addr>>3 + 1
		s := blk % sets
		clock++
		hit, lru := false, 0
		for w := 0; w < ways; w++ {
			if tags[s][w] == blk {
				used[s][w] = clock
				hit = true
				break
			}
			if used[s][w] < used[s][lru] {
				lru = w
			}
		}
		if !hit {
			misses++
			tags[s][lru] = blk
			used[s][lru] = clock
		}
	}
	return sum + uint64(misses)
}

// CPU clocks of clock_gettime(2).
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// threadClock is the CPU clock of thread tid of this process, as glibc's
// pthread_getcpuclockid makes it.
func threadClock(tid int) uintptr {
	return uintptr(^tid<<3 | 6)
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]>>(cpu%64)&1 == 1 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus, nil
}

// pinThread restricts the calling thread to one CPU.
func pinThread(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}

// cpuTime reads a CPU-time clock. Both clocks exist on every Linux kernel
// the package builds for, and the calibrator's thread outlives every read
// of its clock, so an error is a bug.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// millis converts a duration to milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
