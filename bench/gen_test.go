package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenDeterministic(t *testing.T) {
	stage := 2 * time.Second
	a := marshal(t, GenServe(7, stage, serveLow, serveHigh))
	b := marshal(t, GenServe(7, stage, serveLow, serveHigh))
	c := marshal(t, GenServe(8, stage, serveLow, serveHigh))
	if !bytes.Equal(a, b) {
		t.Error("GenServe: same seed gave different traffic")
	}
	if bytes.Equal(a, c) {
		t.Error("GenServe: different seeds gave identical traffic")
	}
	p1, p2, p3 := marshal(t, GenPenalties(7, 50)), marshal(t, GenPenalties(7, 50)), marshal(t, GenPenalties(8, 50))
	if !bytes.Equal(p1, p2) || bytes.Equal(p1, p3) {
		t.Error("GenPenalties is not a function of the seed alone")
	}
}

func TestGenServeShape(t *testing.T) {
	stage := 3 * time.Second
	tr := GenServe(1, stage, serveLow, serveHigh)
	for _, s := range []struct {
		arrivals []Arrival
		rate     float64
	}{{tr.Low, serveLow}, {tr.High, serveHigh}} {
		want := s.rate * stage.Seconds()
		if n := float64(len(s.arrivals)); n < 0.9*want || n > 1.1*want {
			t.Errorf("%v arrivals at %v/s over %v, want about %v", n, s.rate, stage, want)
		}
		for i, a := range s.arrivals {
			if a.At < 0 || a.At >= stage || (i > 0 && a.At < s.arrivals[i-1].At) {
				t.Fatalf("arrival %d at %v: out of order or outside the stage", i, a.At)
			}
		}
	}
	fresh := make(map[string]bool)
	keys := make(map[string]bool)
	repeats := 0
	for i, j := range tr.Jobs {
		if len(j.Geoms) < 1 || len(j.Geoms) > 3 {
			t.Fatalf("job %d asks for %d geometries", i, len(j.Geoms))
		}
		if j.Repeat >= 0 {
			repeats++
			orig := tr.Jobs[j.Repeat]
			if j.Repeat >= i || orig.Repeat != -1 {
				t.Fatalf("job %d repeats job %d, which is not an earlier original", i, j.Repeat)
			}
			orig.Repeat = j.Repeat
			if fmt.Sprint(orig) != fmt.Sprint(j) {
				t.Fatalf("job %d differs from the job it repeats", i)
			}
			continue
		}
		k := fmt.Sprint(j)
		if fresh[k] {
			t.Fatalf("fresh job %d duplicates an earlier request", i)
		}
		fresh[k] = true
		keys[fmt.Sprint(j.Program, j.Arg, j.Impl)] = true
	}
	if share := float64(repeats) / float64(len(tr.Jobs)); share < 0.2 || share > 0.3 {
		t.Errorf("repeat share %.3f, want about %v", share, repeatShare)
	}
	if len(keys) != len(serveArgs)*2*len(serveImpls) {
		t.Errorf("%d compile keys used, want %d", len(keys), len(serveArgs)*2*len(serveImpls))
	}
	seen := make(map[[3]int]bool)
	for _, p := range GenPenalties(1, 200) {
		k := [3]int{p[0], p[1], p[2]}
		if seen[k] {
			t.Fatalf("penalty list %v repeats", p)
		}
		seen[k] = true
	}
}
