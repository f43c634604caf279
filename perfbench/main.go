// Command perfbench is the repository's end-to-end benchmark: it runs one
// campaign workload repeatedly for a fixed time, each repetition in its own
// process, measures every process from outside (wall time, rusage CPU and
// peak RSS), scales the host times by a reference run around each
// repetition (reference.go), checks the simulated results against
// committed digests, and prints one JSON result line. With -trace 1 it
// instead alternates untraced and CPU-profiled repetitions and reports a
// per-layer table.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload spec_grid --seed 1 --seconds 36 --trace 0
//	perfbench record    # rewrite perfbench/digests.json at the default seed
//
// See perfbench/RESULTS.md for the workloads, metrics and measured spread.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed digests were recorded at.
const defaultSeed = 1

// specFigures is the SPEC grid: fig1-fig4 share one set of jobs.
var specFigures = []string{"fig1", "fig2", "fig3", "fig4"}

// loopbackBenches are the SPEC benchmarks whose jobs take 0.3-1.5 ms of
// host time at scale 4096; the grid's long jobs (omnetpp, xalancbmk,
// astar) are left out so that no job dwarfs its lease.
var loopbackBenches = []string{"gobmk", "hmmer"}

// campaign is one child-process campaign.
type campaign struct {
	grid *gridSpec // nil: the open-loop connection fleet
	// twin names a campaign that must produce the same digest at any seed.
	twin string
}

var campaigns = map[string]campaign{
	// The paper's headline SPEC grid: 53 distinct jobs, one pool worker.
	"spec_grid": {grid: &gridSpec{figures: specFigures, reps: 1, scale: 1024}},
	// A few hundred jobs of about a millisecond each, leased to two
	// loopback workers, so per-lease transport and journal costs are a
	// large share of the campaign.
	"grid_loopback": {
		grid: &gridSpec{benches: loopbackBenches, reps: 12, scale: 4096, net: true},
		twin: "grid_loopback_local",
	},
	"grid_loopback_local": {grid: &gridSpec{benches: loopbackBenches, reps: 12, scale: 4096}},
	// One harness.Run of an 8192-connection fleet under Reloaded.
	"fleet_8k": {},
}

// workloads are the campaigns the benchmark measures, in report order.
var workloads = []string{"spec_grid", "fleet_8k", "grid_loopback"}

//go:embed digests.json
var digestsJSON []byte

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"host_cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
	{"jobs_ok_frac", "fraction"},
}

// perLayer lists every metric a traced run reports.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".host_cpu_s", "s"})
	}
	return append(out,
		metricDef{"profile.total_cpu_s", "s"},
		metricDef{"profile.coverage_frac", "fraction"},
		metricDef{"reference.cpu_s", "s"},
		metricDef{"tracing.overhead_frac", "fraction"},
		metricDef{"harness.run_ms.p50", "ms"},
		metricDef{"harness.run_ms.tail", "ms"},
		metricDef{"harness.run_ms.tail_pct", "pct"},
		metricDef{"harness.run_ms.n", "count"},
		metricDef{"dist.lease_overhead_ms.p50", "ms"},
		metricDef{"dist.lease_overhead_ms.tail", "ms"},
		metricDef{"dist.lease_overhead_ms.tail_pct", "pct"},
		metricDef{"dist.lease_overhead_ms.n", "count"},
		metricDef{"dist.join_ms", "ms"},
		metricDef{"sim.mcycles", "Mcycles"},
		metricDef{"sim.host_ns_per_kcycle", "ns/kcycle"},
		metricDef{"bus.dram_mtxns", "Mtxns"},
		metricDef{"kernel.mem_ops", "count"},
		metricDef{"kernel.cap_loads", "count"},
		metricDef{"kernel.gen_faults", "count"},
		metricDef{"vm.tlb_refills", "count"},
		metricDef{"vm.peak_mapped_pages", "pages"},
		metricDef{"alloc.ops", "count"},
		metricDef{"quarantine.blocks", "count"},
		metricDef{"revoke.epochs", "count"},
		metricDef{"revoke.caps_visited", "count"},
		metricDef{"revoke.revoked_per_visited", "fraction"},
		metricDef{"expt.jobs", "count"},
		metricDef{"expt.retries", "count"},
		metricDef{"dist.leases", "count"},
		metricDef{"dist.reclaims", "count"},
		metricDef{"dist.results_per_lease", "fraction"},
		metricDef{"journal.events", "count"},
	)
}()

// minReps is the fewest measured repetitions (pairs, when traced) a run
// takes, however short --seconds is.
const minReps = 3

func main() {
	// An interrupted benchmark kills the campaign it is running (see
	// runner.run) instead of leaving it behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var err error
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			err = childMain(os.Args[2:])
		case "worker":
			err = workerMain(os.Args[2:])
		case "reference":
			err = referenceMain()
		case "record":
			err = record(ctx)
		default:
			err = benchMain(ctx, os.Args[1:])
		}
	} else {
		err = benchMain(ctx, nil)
	}
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runner runs campaign children and accounts for them.
type runner struct {
	ctx  context.Context
	self string // this executable
	dir  string // scratch directory for child outputs
	n    int
	// attempted and failed count jobs over every child the run started.
	attempted, failed int
}

// rep is one measured child process.
type rep struct {
	res    childResult
	wall   time.Duration
	cpu    time.Duration
	rssKiB int64
	setup  time.Duration
	// refBefore and refAfter are the CPU times of the reference runs on
	// either side of an untraced repetition.
	refBefore, refAfter time.Duration
	journal             journalStats
	// profiles are the CPU profiles of a traced repetition.
	profiles []string
}

func newRunner(ctx context.Context) (*runner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Dir(self), "run-")
	if err != nil {
		return nil, err
	}
	return &runner{ctx: ctx, self: self, dir: dir}, nil
}

// run starts one campaign child and waits for it.
func (d *runner) run(name string, seed int64, traced bool) (*rep, error) {
	c := campaigns[name]
	d.n++
	base := filepath.Join(d.dir, fmt.Sprintf("%s-%d", name, d.n))
	args := []string{"child", "-workload", name, "-seed", fmt.Sprint(seed), "-out", base + ".json"}
	net := c.grid != nil && c.grid.net
	if net {
		args = append(args, "-journal", base+".jsonl")
	}
	if traced {
		args = append(args, "-profile", base+".pprof")
	}
	cmd := exec.CommandContext(d.ctx, d.self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The campaign and its worker processes share a process group, so a
	// cancelled run kills them all.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	err := cmd.Wait()
	r := &rep{wall: time.Since(start)}
	if err != nil {
		return nil, fmt.Errorf("campaign %s (seed %d): %w", name, seed, err)
	}
	// The child waited for its own worker processes, so its rusage covers
	// them: CPU is summed over the tree, maxrss is the largest process.
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for campaign process")
	}
	r.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	r.rssKiB = ru.Maxrss
	b, err := os.ReadFile(base + ".json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &r.res); err != nil {
		return nil, fmt.Errorf("campaign %s result: %w", name, err)
	}
	d.attempted += r.res.Jobs
	d.failed += r.res.Failed
	firstJob := r.res.FirstJobNS
	if net {
		if r.journal, err = readJournalStats(base + ".jsonl"); err != nil {
			return nil, err
		}
		if r.journal.firstLeaseNS >= 0 {
			firstJob = r.res.JournalOpenNS + r.journal.firstLeaseNS
		}
	}
	if firstJob > 0 {
		r.setup = time.Duration(firstJob - start.UnixNano())
	}
	if traced {
		r.profiles = append([]string{base + ".pprof"}, r.res.Profiles...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced=%v: wall %.3fs cpu %.3fs rss %.1fMiB setup %.2fms\n",
		name, seed, traced, r.wall.Seconds(), r.cpu.Seconds(), float64(r.rssKiB)/1024, float64(r.setup.Microseconds())/1e3)
	return r, nil
}

// checkDigests counts every job of a repetition whose simulated results
// differ from want as failed (jobs the campaign itself reported failed are
// already counted).
func (d *runner) checkDigests(rs []*rep, want, what string) {
	for _, r := range rs {
		if r.res.Digest != want {
			fmt.Fprintf(os.Stderr, "perfbench: %s: digest %.16s, want %.16s\n", what, r.res.Digest, want)
			d.failed += r.res.Jobs - r.res.Failed
		}
	}
}

func committedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

func benchMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloads))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement time, seconds")
	trace := fs.Int("trace", 0, "1: alternate untraced and profiled repetitions, report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloads)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	digests, err := committedDigests()
	if err != nil {
		return err
	}
	want, ok := digests[*name]
	if !ok {
		return fmt.Errorf("no committed digest for %s", *name)
	}
	d, err := newRunner(ctx)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)

	// Warm-up and correctness: one untimed repetition at the default seed
	// must reproduce the committed digest, and a twin campaign (if any)
	// must reproduce the measured campaign's digest at the run's seed.
	check, err := d.run(*name, defaultSeed, false)
	if err != nil {
		return err
	}
	d.checkDigests([]*rep{check}, want, fmt.Sprintf("%s at the default seed", *name))
	ref := ""
	if tw := campaigns[*name].twin; tw != "" {
		t, err := d.run(tw, *seed, false)
		if err != nil {
			return err
		}
		ref = t.res.Digest
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var plain, traced []*rep
	start := time.Now()
	// Reference runs bracket every untraced repetition (see reference.go).
	refCPU, err := d.reference()
	if err != nil {
		return err
	}
	for {
		r, err := d.run(*name, *seed, false)
		if err != nil {
			return err
		}
		r.refBefore = refCPU
		if refCPU, err = d.reference(); err != nil {
			return err
		}
		r.refAfter = refCPU
		plain = append(plain, r)
		if *trace == 1 {
			if r, err = d.run(*name, *seed, true); err != nil {
				return err
			}
			traced = append(traced, r)
		}
		// Stop before a round that would overrun the budget.
		spent := time.Since(start)
		if len(plain) >= minReps && spent+spent/time.Duration(len(plain)) > budget {
			break
		}
	}

	all := append(append([]*rep(nil), plain...), traced...)
	if ref == "" {
		ref = modeDigest(all)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetition(s), digest %.16s\n", *name, *seed, len(all), ref)
	d.checkDigests(all, ref, fmt.Sprintf("%s at seed %d", *name, *seed))

	var metrics map[string]float64
	correct := true
	if *trace == 1 {
		var aerr error
		metrics, aerr = layerMetrics(plain, traced)
		if aerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", aerr)
			correct = false
		}
	} else {
		metrics = endToEndMetrics(plain, d)
	}
	correct = correct && d.failed == 0
	if err := printResult(correct, d, metrics, *trace == 1); err != nil {
		return err
	}
	if !correct {
		os.RemoveAll(d.dir)
		os.Exit(1)
	}
	return nil
}

func medianWall(rs []*rep) time.Duration {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, float64(r.wall))
	}
	return time.Duration(median(xs))
}

// modeDigest is the digest most repetitions agree on.
func modeDigest(rs []*rep) string {
	n := map[string]int{}
	best := ""
	for _, r := range rs {
		n[r.res.Digest]++
		if n[r.res.Digest] > n[best] {
			best = r.res.Digest
		}
	}
	return best
}

func medianOf(rs []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEndMetrics are medians over the untraced repetitions, with host
// times scaled to the nominal host speed.
func endToEndMetrics(rs []*rep, d *runner) map[string]float64 {
	return map[string]float64{
		"sim_mcycles_per_s": medianOf(rs, func(r *rep) float64 { return float64(r.res.SimCycles) / 1e6 / scaled(r, r.wall) }),
		"host_cpu_s":        medianOf(rs, func(r *rep) float64 { return scaled(r, r.cpu) }),
		"peak_rss_mib":      medianOf(rs, func(r *rep) float64 { return float64(r.rssKiB) / 1024 }),
		"setup_s":           medianOf(rs, func(r *rep) float64 { return scaled(r, r.setup) }),
		"jobs_ok_frac":      1 - float64(d.failed)/float64(max(d.attempted, 1)),
	}
}

// layerMetrics builds the per-layer table: host CPU per layer from the
// traced repetitions' profiles (per campaign), spans, and the simulated
// work counters.
func layerMetrics(plain, traced []*rep) (map[string]float64, error) {
	m := map[string]float64{}
	var attr attribution
	var runMS, leaseMS, joinMS, coverage []float64
	for _, r := range traced {
		before := attr.totalNS()
		for _, p := range r.profiles {
			prof, err := readProfile(p)
			if err != nil {
				return m, err
			}
			attr.add(prof)
		}
		// The profiles of a repetition cover the CPU its processes spent
		// between starting and stopping the profiler, which wait4 measured
		// independently of pprof.
		coverage = append(coverage, float64(attr.totalNS()-before)/float64(r.cpu.Nanoseconds()))
		runMS = append(runMS, r.res.RunMS...)
		runMS = append(runMS, r.journal.workerRunMS...)
		leaseMS = append(leaseMS, r.journal.leaseOverheadMS...)
		if r.res.WorkersSpawnNS > 0 && r.journal.lastJoinNS >= 0 {
			joinMS = append(joinMS, float64(r.res.JournalOpenNS+r.journal.lastJoinNS-r.res.WorkersSpawnNS)/1e6)
		}
	}
	n := float64(len(traced))
	for _, l := range layers {
		m[l+".host_cpu_s"] = float64(attr.byLayer[l]) / 1e9 / n
	}
	m["profile.total_cpu_s"] = float64(attr.totalNS()) / 1e9 / n
	m["reference.cpu_s"] = medianOf(plain, func(r *rep) float64 { return ((r.refBefore + r.refAfter) / 2).Seconds() })
	m["profile.coverage_frac"] = median(coverage)
	m["tracing.overhead_frac"] = float64(medianWall(traced))/float64(medianWall(plain)) - 1
	spans := func(prefix string, xs []float64) {
		pct, v := tail(xs)
		m[prefix+".p50"] = median(xs)
		m[prefix+".tail"] = v
		m[prefix+".tail_pct"] = pct
		m[prefix+".n"] = float64(len(xs))
	}
	spans("harness.run_ms", runMS)
	spans("dist.lease_overhead_ms", leaseMS)
	m["dist.join_ms"] = median(joinMS)

	first := traced[0]
	for k, v := range first.res.Counts {
		m[k] = v
	}
	m["sim.host_ns_per_kcycle"] = medianOf(plain, func(r *rep) float64 {
		return float64(r.cpu.Nanoseconds()) / (float64(r.res.SimCycles) / 1e3)
	})
	js := first.journal
	m["dist.leases"] = float64(js.leases)
	m["dist.reclaims"] = float64(js.reclaims)
	m["dist.results_per_lease"] = 0
	if js.leases > 0 {
		m["dist.results_per_lease"] = float64(js.reports) / float64(js.leases)
	}
	m["journal.events"] = float64(js.events)
	if err := attr.check(); err != nil {
		return m, err
	}
	for _, c := range coverage {
		if c < minCoverage || c > maxCoverage {
			return m, fmt.Errorf("profile: a traced repetition's profiles hold %.1f%% of its rusage CPU, want %.0f-%.0f%%",
				100*c, 100*minCoverage, 100*maxCoverage)
		}
	}
	return m, nil
}

// A traced repetition's profiles must account for this share of the CPU
// wait4 reports for its processes. Each process's start-up and the
// writing of its own profile fall outside the profile, and each thread's
// last partial 10 ms sampling period is lost, so the share sits below 1:
// about 0.99 on spec_grid, 0.96 on fleet_8k and 0.8 on grid_loopback,
// whose three processes each live for a third of a second. A worker
// profile gone missing would drop grid_loopback to about 0.45.
const minCoverage, maxCoverage = 0.65, 1.02

func printResult(correct bool, d *runner, values map[string]float64, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(d.attempted, 1), d.failed, map[string]metric{}}
	var missing []string
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			missing = append(missing, def.name)
			continue
		}
		out.Metrics[def.name] = metric{v, def.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// record reruns every workload at the default seed and rewrites
// perfbench/digests.json. Run it from the repository root after a change
// that is meant to alter simulated results, and say why in the commit.
func record(ctx context.Context) error {
	d, err := newRunner(ctx)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)
	out := map[string]string{}
	for _, w := range workloads {
		r, err := d.run(w, defaultSeed, false)
		if err != nil {
			return err
		}
		if r.res.Failed > 0 || r.res.Digest == "" {
			return fmt.Errorf("%s: %d job(s) failed", w, r.res.Failed)
		}
		if tw := campaigns[w].twin; tw != "" {
			t, err := d.run(tw, defaultSeed, false)
			if err != nil {
				return err
			}
			if t.res.Digest != r.res.Digest {
				return fmt.Errorf("%s: digest %.16s differs from its twin %s's %.16s", w, r.res.Digest, tw, t.res.Digest)
			}
		}
		out[w] = r.res.Digest
		fmt.Fprintf(os.Stderr, "perfbench: %s %s\n", w, r.res.Digest)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "digests.json"), append(b, '\n'), 0o644)
}
