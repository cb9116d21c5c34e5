// Custom: write a brand-new TAM program against the public API — the
// classic fine-grained doubly-recursive Fibonacci — and run it under
// both implementations. Every recursive call is its own activation, so
// fib is even finer-grained than the paper's quicksort.
package main

import (
	"flag"
	"fmt"
	"log"

	"jmtam"
)

// fibProgram builds fib(n) as a TAM program. Codeblock "fib" has frame
// slots 0=n, 1=return inlet, 2=return frame, 3=a, 4=b, 5=child frame,
// and one entry count (the sum thread waits for both recursive results).
func fibProgram(n int64) *jmtam.Program {
	fib := &jmtam.Codeblock{Name: "fib", NumCounts: 1, InitCounts: []int64{2}, NumSlots: 6}
	var tCheck, tSend1, tSend2, tSum *jmtam.Thread
	var iC1, iC2, iA, iB *jmtam.Inlet
	var start *jmtam.Inlet

	reply := func(b *jmtam.Body, valReg uint8) {
		b.LDSlot(0, 1)
		b.LDSlot(1, 2)
		b.SendMsgDyn(0, 1, valReg)
		b.ReleaseFrame()
		b.Stop()
	}

	tCheck = fib.AddThread("check", -1, func(b *jmtam.Body) {
		b.LDSlot(2, 0) // n
		b.MovI(1, 2)
		b.BGE(2, 1, "fib.recurse")
		reply(b, 2) // fib(0)=0, fib(1)=1
		b.Case("fib.recurse")
		b.FAlloc(fib, iC1)
		b.Stop()
	})
	tSend1 = fib.AddThread("send1", -1, func(b *jmtam.Body) {
		b.ReloadArg(0, 5)
		b.BeginMsg(start)
		b.SendW(0)
		b.LDSlot(1, 0)
		b.SubI(1, 1, 1)
		b.SendW(1) // n-1
		b.InletAddr(1, iA)
		b.SendW(1)
		b.SendW(6) // this frame
		b.SendE()
		b.FAlloc(fib, iC2)
		b.Stop()
	})
	tSend1.DirectOnly = true
	tSend2 = fib.AddThread("send2", -1, func(b *jmtam.Body) {
		b.ReloadArg(0, 5)
		b.BeginMsg(start)
		b.SendW(0)
		b.LDSlot(1, 0)
		b.SubI(1, 1, 2)
		b.SendW(1) // n-2
		b.InletAddr(1, iB)
		b.SendW(1)
		b.SendW(6)
		b.SendE()
		b.Stop()
	})
	tSend2.DirectOnly = true
	tSum = fib.AddThread("sum", 0, func(b *jmtam.Body) {
		b.LDSlot(0, 3)
		b.LDSlot(1, 4)
		b.Add(2, 0, 1)
		reply(b, 2)
	})

	iC1 = fib.AddInlet("child1", func(b *jmtam.Body) {
		b.TakeArg(0, 5, 0, tSend1)
		b.PostEnd(tSend1)
	})
	iC2 = fib.AddInlet("child2", func(b *jmtam.Body) {
		b.TakeArg(0, 5, 0, tSend2)
		b.PostEnd(tSend2)
	})
	iA = fib.AddInlet("a", func(b *jmtam.Body) {
		b.Arg(0, 0)
		b.STSlot(3, 0)
		b.PostEnd(tSum)
	})
	iB = fib.AddInlet("b", func(b *jmtam.Body) {
		b.Arg(0, 0)
		b.STSlot(4, 0)
		b.PostEnd(tSum)
	})
	start = fib.AddInlet("start", func(b *jmtam.Body) {
		b.Arg(0, 0)
		b.STSlot(0, 0)
		b.Arg(0, 1)
		b.STSlot(1, 0)
		b.Arg(0, 2)
		b.STSlot(2, 0)
		b.PostEnd(tCheck)
	})

	// Driver: kick off the root call and capture the result.
	main := &jmtam.Codeblock{Name: "fibmain", NumSlots: 2}
	var tGo *jmtam.Thread
	var iGotF, iDone *jmtam.Inlet
	var mainStart *jmtam.Inlet
	tGo = main.AddThread("go", -1, func(b *jmtam.Body) {
		b.FAlloc(fib, iGotF)
		b.Stop()
	})
	tKick := main.AddThread("kick", -1, func(b *jmtam.Body) {
		b.ReloadArg(0, 1)
		b.BeginMsg(start)
		b.SendW(0)
		b.LDSlot(1, 0)
		b.SendW(1)
		b.InletAddr(1, iDone)
		b.SendW(1)
		b.SendW(6)
		b.SendE()
		b.Stop()
	})
	tKick.DirectOnly = true
	iGotF = main.AddInlet("gotframe", func(b *jmtam.Body) {
		b.TakeArg(0, 1, 0, tKick)
		b.PostEnd(tKick)
	})
	iDone = main.AddInlet("done", func(b *jmtam.Body) {
		b.Arg(0, 0)
		b.StoreResult(0, 0)
		b.EndInlet()
	})
	mainStart = main.AddInlet("start", func(b *jmtam.Body) {
		b.Arg(0, 0)
		b.STSlot(0, 0)
		b.PostEnd(tGo)
	})

	return &jmtam.Program{
		Name:   fmt.Sprintf("fib-%d", n),
		Blocks: []*jmtam.Codeblock{main, fib},
		Setup: func(h *jmtam.Host) error {
			f := h.AllocFrame(main)
			return h.Start(mainStart, f, jmtam.Int(n))
		},
		Verify: func(h *jmtam.Host) error {
			want := fibRef(n)
			if got := h.Result(0).AsInt(); got != want {
				return fmt.Errorf("fib(%d) = %d, want %d", n, got, want)
			}
			return nil
		},
	}
}

func fibRef(n int64) int64 {
	a, b := int64(0), int64(1)
	for ; n > 0; n-- {
		a, b = b, a+b
	}
	return a
}

func main() {
	n := flag.Int64("n", 15, "fib argument")
	flag.Parse()

	geom := jmtam.CacheConfig{SizeBytes: 8 * 1024, BlockBytes: 64, Assoc: 4}
	// MD uses the hardware queue as its task queue, and a doubly
	// recursive fib buffers far more pending calls than the MDP's
	// 1K-word queue holds (fib(15) peaks at 264 messages): run both
	// backends on the largest queue the memory map reserves.
	opt := jmtam.Options{QueueCapWords: 1 << 14}
	fmt.Printf("fib(%d) as a custom TAM program\n\n", *n)
	for _, impl := range []jmtam.Impl{jmtam.MD, jmtam.AM} {
		res, err := jmtam.Run(impl, fibProgram(*n), opt, geom)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3v instructions=%8d threads=%6d TPQ=%5.1f cycles(miss=24)=%9d\n",
			impl, res.Instructions, res.Threads, res.TPQ, res.Cycles(0, 24))
	}
}
