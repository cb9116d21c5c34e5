package bench

import (
	"math"
	"math/rand/v2"
	"time"

	"jmtam/internal/cache"
)

// The seed drives only the inputs below: paper-warm's penalty lists and
// serve-open's arrival times and request descriptors. Everything is
// generated before the server starts; the server sees only the requests.

// Grid is the paper's geometry grid: 1–128 KB × 1/2/4-way, 64-byte
// blocks, in experiments.DefaultSweep order (size-major).
func Grid() []cache.Config {
	var gs []cache.Config
	for _, kb := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		for _, a := range []int{1, 2, 4} {
			gs = append(gs, cache.Config{SizeBytes: kb * 1024, BlockBytes: 64, Assoc: a})
		}
	}
	return gs
}

// serveArgs gives each program two quick-scale problem sizes, and
// serveImpls the six backends: 6 × 2 × 6 = 72 compile keys, more than
// the server's 32-entry compile cache holds.
var (
	serveArgs = []struct {
		program string
		args    [2]int
	}{
		{"mmt", [2]int{10, 8}}, {"qs", [2]int{60, 40}}, {"dtw", [2]int{8, 6}},
		{"paraffins", [2]int{10, 8}}, {"wavefront", [2]int{16, 12}}, {"ss", [2]int{60, 40}},
	}
	serveImpls = []string{"md", "am", "am-enabled", "oam", "offload", "aa"}
)

// repeatShare is the share of serve-open requests that repeat an earlier
// request exactly and so hit the result cache. It is kept away from one
// half so the latency median falls inside the fresh-job population
// instead of on the boundary between the two.
const repeatShare = 0.25

// ServeJob is one run request of serve-open's traffic.
type ServeJob struct {
	Program   string `json:"program"`
	Arg       int    `json:"arg"`
	Impl      string `json:"impl"`
	Geoms     []int  `json:"geoms"` // indices into Grid
	Penalties []int  `json:"penalties"`
	// Repeat is the index of the earlier job this one repeats, or -1.
	Repeat int `json:"repeat"`
}

// Arrival is one open-loop request: job Job is due At after its stage
// starts.
type Arrival struct {
	At  time.Duration `json:"at"`
	Job int           `json:"job"`
}

// ServeTraffic is serve-open's complete input: the request list, the two
// open-loop arrival schedules and the closed-loop request order.
type ServeTraffic struct {
	Jobs   []ServeJob `json:"jobs"`
	Low    []Arrival  `json:"low"`
	High   []Arrival  `json:"high"`
	Closed []int      `json:"closed"`
}

// closedCap bounds the closed-loop stage's request list, per second of
// stage: over twice the highest capacity measured on a 2-core host.
const closedCap = 5000

// GenServe builds serve-open's traffic: Poisson arrivals at rates low and
// high (requests per second) for one stage each, then enough requests for
// a closed-loop stage of the same length. A quarter of the requests
// repeat an earlier one; the rest carry a penalty list no other request
// has, so they miss the result cache.
func GenServe(seed int64, stage time.Duration, low, high float64) *ServeTraffic {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	g := &serveGen{r: r, grid: len(Grid()), seen: make(map[jobKey]bool)}
	t := &ServeTraffic{}
	poisson := func(rate float64) []Arrival {
		var out []Arrival
		at := time.Duration(0)
		for {
			at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
			if at >= stage {
				return out
			}
			out = append(out, Arrival{At: at, Job: g.next(t)})
		}
	}
	t.Low = poisson(low)
	t.High = poisson(high)
	n := int(math.Ceil(stage.Seconds() * closedCap))
	for i := 0; i < n; i++ {
		t.Closed = append(t.Closed, g.next(t))
	}
	return t
}

// GenPenalties returns n distinct miss-penalty lists for paper-warm, one
// per sweep request, so each request misses the result cache while its
// recordings hit the store.
func GenPenalties(seed int64, n int) [][]int {
	r := rand.New(rand.NewPCG(uint64(seed), 0x9e7a))
	seen := make(map[[3]int]bool)
	var out [][]int
	for len(out) < n {
		p := [3]int{1 + r.IntN(100), 1 + r.IntN(100), 1 + r.IntN(100)}
		if !seen[p] {
			seen[p] = true
			out = append(out, p[:])
		}
	}
	return out
}

type serveGen struct {
	r    *rand.Rand
	grid int
	seen map[jobKey]bool
}

// jobKey identifies a request; absent geometries are -1.
type jobKey struct {
	program   string
	arg       int
	impl      string
	geoms     [3]int
	penalties [3]int
}

// next appends one request to t and returns its index.
func (g *serveGen) next(t *ServeTraffic) int {
	i := len(t.Jobs)
	if i > 0 && g.r.Float64() < repeatShare {
		k := g.r.IntN(i)
		if t.Jobs[k].Repeat >= 0 {
			k = t.Jobs[k].Repeat // point at the original request
		}
		rep := t.Jobs[k]
		rep.Repeat = k
		t.Jobs = append(t.Jobs, rep)
		return i
	}
	for {
		pa := serveArgs[g.r.IntN(len(serveArgs))]
		j := ServeJob{
			Program:   pa.program,
			Arg:       pa.args[g.r.IntN(2)],
			Impl:      serveImpls[g.r.IntN(len(serveImpls))],
			Geoms:     g.r.Perm(g.grid)[:1+g.r.IntN(3)],
			Penalties: []int{1 + g.r.IntN(100), 1 + g.r.IntN(100), 1 + g.r.IntN(100)},
			Repeat:    -1,
		}
		key := jobKey{program: j.Program, arg: j.Arg, impl: j.Impl, geoms: [3]int{-1, -1, -1}}
		copy(key.geoms[:], j.Geoms)
		copy(key.penalties[:], j.Penalties)
		if !g.seen[key] {
			g.seen[key] = true
			t.Jobs = append(t.Jobs, j)
			return i
		}
	}
}
