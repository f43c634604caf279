package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestTailPicksHighestRungWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if pct, _ := tail(seq(tc.n)); pct != tc.want {
			t.Errorf("tail of %d samples: p%v, want p%v", tc.n, pct, tc.want)
		}
	}
	// 1..100 at p90 interpolates between ranks 90 and 91.
	if _, v := tail(seq(100)); math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLeaseOverheadFromFixtureJournal(t *testing.T) {
	st, err := readJournalStats(filepath.Join("testdata", "lease.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st.events != 13 || st.leases != 3 || st.reclaims != 1 || st.reports != 2 {
		t.Fatalf("counts: %+v", st)
	}
	if st.firstLeaseNS != 8e6 || st.lastJoinNS != 7e6 {
		t.Fatalf("first lease %d, last join %d", st.firstLeaseNS, st.lastJoinNS)
	}
	// L1: leased at 8 ms, reported at 14 ms, ran 4.5 ms -> 1.5 ms overhead.
	// L3: 15 -> 25 ms, ran 8 ms -> 2 ms. The reclaimed L2's discarded report
	// is no span.
	want := []float64{1.5, 2}
	if len(st.leaseOverheadMS) != len(want) {
		t.Fatalf("lease overheads %v, want %v", st.leaseOverheadMS, want)
	}
	for i := range want {
		if math.Abs(st.leaseOverheadMS[i]-want[i]) > 1e-9 {
			t.Fatalf("lease overheads %v, want %v", st.leaseOverheadMS, want)
		}
	}
	if len(st.workerRunMS) != 2 || st.workerRunMS[0] != 4.5 || st.workerRunMS[1] != 8 {
		t.Fatalf("worker run spans %v", st.workerRunMS)
	}
}

func TestHostTimesScaledByReference(t *testing.T) {
	// The host ran the reference at half the nominal speed around this
	// repetition, so its times read half as long once scaled.
	r := &rep{wall: 3 * time.Second, cpu: 4 * time.Second, setup: 10 * time.Millisecond,
		refBefore: 2 * refNominal * 9 / 10, refAfter: 2 * refNominal * 11 / 10,
		res: childResult{SimCycles: 300e6}}
	m := endToEndMetrics([]*rep{r}, &runner{attempted: 1})
	for name, want := range map[string]float64{"host_cpu_s": 2, "setup_s": 0.005, "sim_mcycles_per_s": 200} {
		if math.Abs(m[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

func TestFailureCounting(t *testing.T) {
	d := &runner{}
	reps := []*rep{
		{res: childResult{Digest: "good", Jobs: 53}},
		{res: childResult{Digest: "bad", Jobs: 53, Failed: 2}},
		{res: childResult{Digest: "good", Jobs: 53}},
	}
	for _, r := range reps {
		// As runner.run accounts a finished child.
		d.attempted += r.res.Jobs
		d.failed += r.res.Failed
	}
	if got := modeDigest(reps); got != "good" {
		t.Fatalf("mode digest %q", got)
	}
	d.checkDigests(reps, "good", "fixture")
	if d.attempted != 159 || d.failed != 53 {
		t.Fatalf("attempted %d failed %d, want 159 and 53", d.attempted, d.failed)
	}
	m := endToEndMetrics(reps, d)
	if want := 1 - 53.0/159; math.Abs(m["jobs_ok_frac"]-want) > 1e-12 {
		t.Fatalf("jobs_ok_frac %v, want %v", m["jobs_ok_frac"], want)
	}
	// A repetition whose own jobs failed counts only the rest again.
	d = &runner{}
	d.checkDigests([]*rep{{res: childResult{Digest: "", Jobs: 10, Failed: 10}}}, "good", "fixture")
	if d.failed != 0 {
		t.Fatalf("failed jobs counted twice: %d", d.failed)
	}
}

// fixtureStacks are the samples of testdata/cpu.pprof.gz, a hand-made
// CPU profile, leaf first, with the layer each must be charged to.
var fixtureStacks = []struct {
	stack []string
	ms    int64
	layer string
}{
	{[]string{"runtime.memmove", "repro/internal/tmem.(*Phys).LoadCap", "repro/internal/kernel.(*Thread).LoadCap"}, 50, "tmem"},
	{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/alloc.(*Allocator).Malloc"}, 30, "runtime.gc"},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 40, "runtime.gc"},
	{[]string{"runtime.mallocgc", "repro/internal/alloc.(*Allocator).Malloc"}, 20, "alloc"},
	{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, 10, "other"},
	{[]string{"repro/internal/workload/spec.(*Profile).Body.func1"}, 60, "workload"},
	{[]string{"repro/internal/dist/netfault.(*Injector).decide"}, 10, "dist"},
	{[]string{"repro/internal/telemetry.(*Recorder).Enter", "repro/internal/kernel.(*Thread).Tick"}, 20, "other"},
	{[]string{"encoding/json.Marshal", "repro/internal/journal.(*Writer).Emit", "repro/internal/expt.(*Pool).submit"}, 30, "journal"},
	{[]string{"repro/internal/sim.(*fastEngine).dispatch"}, 70, "sim"},
}

func TestAttributionOnFixtureProfile(t *testing.T) {
	p, err := readProfile(filepath.Join("testdata", "cpu.pprof.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) != len(fixtureStacks) {
		t.Fatalf("%d samples read, want %d", len(p.stacks), len(fixtureStacks))
	}
	want := map[string]int64{}
	for i, s := range fixtureStacks {
		if !slices.Equal(p.stacks[i], s.stack) || p.ns[i] != s.ms*1e6 {
			t.Errorf("sample %d: %v %d ns, want %v %d ms", i, p.stacks[i], p.ns[i], s.stack, s.ms)
		}
		if got := layerOf(p.stacks[i]); got != s.layer {
			t.Errorf("sample %d %v charged to %s, want %s", i, p.stacks[i], got, s.layer)
		}
		want[s.layer] += s.ms * 1e6
	}
	var a attribution
	a.add(p)
	for l, ns := range want {
		if a.byLayer[l] != ns {
			t.Errorf("%s: %d ns, want %d", l, a.byLayer[l], ns)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]int64{"10ms": 1e7, "3.10s": 3.1e9, "250us": 2.5e5, "1.50mins": 90e9, "7ns": 7} {
		if got, err := parseDuration(s); err != nil || got != want {
			t.Errorf("parseDuration(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"10", "ms", "10parsecs"} {
		if _, err := parseDuration(s); err == nil {
			t.Errorf("parseDuration(%q) succeeded", s)
		}
	}
}

func TestRealProfileDecodes(t *testing.T) {
	// Profile this test binary briefly; the layers must sum to pprof's own
	// total.
	f, err := os.CreateTemp(t.TempDir(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	stop, err := startProfile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := 0; i < 30_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if p.totalNS <= 0 {
		t.Fatalf("no pprof total read: %d", p.totalNS)
	}
	var a attribution
	a.add(p)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	// A parse that loses the largest sample block is refused.
	big := 0
	for i, ns := range p.ns {
		if ns > p.ns[big] {
			big = i
		}
	}
	var lossy attribution
	lossy.add(&cpuProfile{
		stacks:  slices.Delete(slices.Clone(p.stacks), big, big+1),
		ns:      slices.Delete(slices.Clone(p.ns), big, big+1),
		totalNS: p.totalNS,
	})
	if err := lossy.check(); err == nil {
		t.Fatalf("dropping a %d ns sample of %d ns passed the 1%% check", p.ns[big], p.totalNS)
	}
	sink = x
}

var sink float64

func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s, runner %s", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: %s (%s), runner %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range doc.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("end_to_end", n, u, endToEnd)
	n, u = nil, nil
	for _, m := range doc.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("per_layer", n, u, perLayer)
}
