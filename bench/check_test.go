package bench

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"jmtam/api"
	"jmtam/internal/experiments"
)

// quickDaemon starts a daemon for the test and stops it at cleanup.
func quickDaemon(t *testing.T) *daemon {
	t.Helper()
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d
}

func TestPerturbedSweepFails(t *testing.T) {
	ds, err := experiments.DefaultSweep(experiments.QuickWorkloads()).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := DatasetDigest(ds); got != paperQuickDigest {
		t.Fatalf("quick sweep digest %s, want %s", got, paperQuickDigest)
	}
	ds.Run("qs", ds.Sweep.Impls[1]).Caches[3].DMisses++
	if DatasetDigest(ds) == paperQuickDigest {
		t.Error("a perturbed miss count left the digest unchanged")
	}

	// The same grid through tamsimd must hash to the same digest.
	penalties := []int{5, 50, 70}
	st, err := quickDaemon(t).submit(context.Background(), "/v1/sweeps",
		api.SweepRequest{Scale: "quick", Detail: true, Penalties: penalties})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *api.SweepResult {
		var doc api.SweepResult
		if err := json.Unmarshal(st.terminal().Result, &doc); err != nil {
			t.Fatal(err)
		}
		return &doc
	}
	if err := CheckSweepDoc(fresh(), penalties, paperQuickDigest); err != nil {
		t.Fatalf("unperturbed document: %v", err)
	}
	for name, perturb := range map[string]func(*api.SweepResult){
		"miss":        func(d *api.SweepResult) { d.Runs[2].Caches[5].IMisses++ },
		"writebacks":  func(d *api.SweepResult) { d.Runs[0].Caches[0].Writebacks++ },
		"cycles":      func(d *api.SweepResult) { d.Runs[4].Caches[7].Cycles[1].Cycles++ },
		"table 2":     func(d *api.SweepResult) { d.Table2[1].Ratio24 = math.Nextafter(d.Table2[1].Ratio24, 2) },
		"tpq":         func(d *api.SweepResult) { d.Runs[3].TPQ *= 1.0000001 },
		"dropped run": func(d *api.SweepResult) { d.Runs = d.Runs[1:] },
	} {
		doc := fresh()
		perturb(doc)
		if CheckSweepDoc(doc, penalties, paperQuickDigest) == nil {
			t.Errorf("perturbed %s passed the check", name)
		}
	}
}

func TestPerturbedRunFails(t *testing.T) {
	j := ServeJob{Program: "dtw", Arg: 6, Impl: "offload", Geoms: []int{0, 13}, Penalties: []int{3, 30, 90}, Repeat: -1}
	ref, _, err := reference(refKey{j.Program, j.Arg, j.Impl}, Grid())
	if err != nil {
		t.Fatal(err)
	}
	s := &serveSession{d: quickDaemon(t), traffic: &ServeTraffic{Jobs: []ServeJob{j}},
		refs: map[refKey]*runRef{{j.Program, j.Arg, j.Impl}: ref}}
	o := s.do(context.Background(), 0)
	if o.err != nil {
		t.Fatalf("unperturbed job: %v", o.err)
	}
	for name, perturb := range map[string]func(*api.RunResult){
		"instructions": func(d *api.RunResult) { d.Instructions++ },
		"miss":         func(d *api.RunResult) { d.Caches[1].DMisses-- },
		"cycles":       func(d *api.RunResult) { d.Caches[0].Cycles[2].Cycles++ },
		"geometry":     func(d *api.RunResult) { d.Caches[0].Assoc = 2 },
		"backend":      func(d *api.RunResult) { d.Impl = "AM" },
	} {
		var doc api.RunResult
		if err := json.Unmarshal(o.st.terminal().Result, &doc); err != nil {
			t.Fatal(err)
		}
		perturb(&doc)
		if CheckRunDoc(&doc, j, ref) == nil {
			t.Errorf("perturbed %s passed the check", name)
		}
	}
}

func TestPerturbedNodeRowsFail(t *testing.T) {
	s := &meshSession{ws: experiments.QuickWorkloads()[2:3], par: 2}
	rows, err := s.pass()
	if err != nil {
		t.Fatal(err)
	}
	want := NodeRowsDigest(rows)
	rows[0].Ticks["aa"]++
	if NodeRowsDigest(rows) == want {
		t.Error("a perturbed tick count left the digest unchanged")
	}
}

// TestFailedCheckCountsAsFailed: an operation whose output check fails
// is attempted, failed, and timed at +Inf in wall and CPU time.
func TestFailedCheckCountsAsFailed(t *testing.T) {
	cal := startCalibrator()
	defer cal.close()
	m := closedLoop(&Config{Workload: "test", Smoke: true}, nil, cal, func(int, *Tracer) (func() error, error) {
		return func() error { return errors.New("wrong output") }, nil
	})
	if m.attempted != 1 || m.failed != 1 || !math.IsInf(m.lat[0], 1) || !math.IsInf(m.cpu[0], 1) {
		t.Errorf("attempted %d failed %d latency %v CPU %v; want 1, 1, +Inf, +Inf", m.attempted, m.failed, m.lat, m.cpu)
	}
}
