package main

// The campaign side of the benchmark: one child process per campaign,
// driven through the repository's public APIs (expt pool and figures,
// dist coordinator and workers, harness.Run, the journal). The child times
// nothing end to end itself; the runner measures it from outside.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/expt"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload/fleet"
	"repro/internal/workload/spec"
)

// childResult is what a campaign child reports to the runner.
type childResult struct {
	// Digest hashes the campaign's simulated results: the canonical
	// cornucopia-sweep/v1 document for grids, the headline counters for
	// the fleet.
	Digest string `json:"digest"`
	Jobs   int    `json:"jobs"`
	Failed int    `json:"failed"`
	// SimCycles sums the simulated wall cycles of every job.
	SimCycles uint64 `json:"sim_cycles"`
	// FirstJobNS is the Unix time (ns) the first job began executing on
	// this process; zero when jobs run on workers (see the journal).
	FirstJobNS int64 `json:"first_job_ns,omitempty"`
	// JournalOpenNS is the Unix time (ns) the journal's host_ns clock
	// started; WorkersSpawnNS when the worker processes were started.
	JournalOpenNS  int64 `json:"journal_open_ns,omitempty"`
	WorkersSpawnNS int64 `json:"workers_spawn_ns,omitempty"`
	// Counts are the per-layer work counters (see countsOf).
	Counts map[string]float64 `json:"counts"`
	// RunMS is the host time of each job's run, recorded around the call
	// into the harness (traced campaigns only; under the network executor
	// the journal carries the worker-reported times instead).
	RunMS []float64 `json:"run_ms,omitempty"`
	// Profiles lists the CPU profiles of the worker processes.
	Profiles []string `json:"profiles,omitempty"`
}

// childOpts are the per-campaign outputs the runner asks a child for.
type childOpts struct {
	journal string // campaign journal path ("" = off)
	// profile, when set, traces the campaign: a CPU profile at this path
	// (workers write profile.wN) and per-job run spans.
	profile string
}

// gridSpec is a grid campaign: either figures, built through the executor
// as cmd/sweep builds them, or a plain job list of SPEC benchmarks.
type gridSpec struct {
	figures []string
	// benches, when figures is empty, lists the SPEC benchmarks whose every
	// input runs under Baseline and each standard condition, reps times.
	benches []string
	reps    int
	scale   uint64
	// net runs the grid through an in-process dist coordinator leasing to
	// two worker processes over loopback, one lease each; otherwise a
	// one-worker local pool runs it.
	net bool
}

const netWorkers = 2

func (g gridSpec) options(seed int64) expt.Options {
	o := expt.DefaultOptions()
	o.Reps = g.reps
	o.SpecCfg.Scale = g.scale
	o.SpecCfg.Seed, o.PgCfg.Seed, o.QPSCfg.Seed = seed, seed, seed
	// The same scale fan-out as cmd/sweep -scale, so a campaign's digest
	// can be reproduced with `sweep -canonical`.
	if g.scale != 64 {
		o.PgCfg.Scale = max(g.scale/8, 1)
		o.QPSCfg.Scale = g.scale
	}
	return o
}

// jobs expands a job-list grid. Repetition i of a cell runs at seed
// seed+i*1000003, the stride the figure builders use.
func (g gridSpec) jobs(o expt.Options) ([]expt.Job, error) {
	conds := append([]harness.Condition{harness.Baseline()}, harness.StandardConditions()...)
	var jobs []expt.Job
	for _, b := range g.benches {
		profiles := spec.ByName(b)
		if len(profiles) == 0 {
			return nil, fmt.Errorf("unknown SPEC benchmark %q", b)
		}
		for _, p := range profiles {
			for _, c := range conds {
				for i := 0; i < g.reps; i++ {
					cfg := o.SpecCfg
					cfg.Seed += int64(i) * 1000003
					jobs = append(jobs, expt.Job{Workload: expt.SpecWorkload(p.Name()), Cond: c, Cfg: cfg})
				}
			}
		}
	}
	return jobs, nil
}

// childMain runs one campaign and writes its childResult as JSON.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign to run")
	seed := fs.Int64("seed", defaultSeed, "campaign seed")
	out := fs.String("out", "", "result file")
	var o childOpts
	fs.StringVar(&o.journal, "journal", "", "campaign journal path")
	fs.StringVar(&o.profile, "profile", "", "trace: write a CPU profile here and record run spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, ok := campaigns[*name]
	if !ok {
		return fmt.Errorf("unknown campaign %q", *name)
	}
	stop, err := startProfile(o.profile)
	if err != nil {
		return err
	}
	var res *childResult
	if c.grid != nil {
		res, err = runGrid(*c.grid, *seed, o)
	} else {
		res, err = runFleet(*seed, o)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

// workerMain is one network worker process: a dist.Worker holding one
// lease at a time, optionally CPU-profiled.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "coordinator address")
	name := fs.String("name", "", "worker label")
	profile := fs.String("profile", "", "CPU profile path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := startProfile(*profile)
	if err != nil {
		return err
	}
	w := dist.NewWorker(dist.WorkerConfig{
		Connect: *connect, Name: *name, Parallel: 1,
		HelloTimeout: 30 * time.Second, ReconnectTimeout: 30 * time.Second,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench worker: "+format+"\n", args...) },
	})
	err = w.Run()
	if perr := stop(); err == nil {
		err = perr
	}
	return err
}

func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func runGrid(g gridSpec, seed int64, o childOpts) (*childResult, error) {
	opts := g.options(seed)
	figures := make([]expt.Figure, len(g.figures))
	for i, id := range g.figures {
		f, ok := expt.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		figures[i] = f
	}
	var jobs []expt.Job
	if len(figures) == 0 {
		var err error
		if jobs, err = g.jobs(opts); err != nil {
			return nil, err
		}
	}
	res := &childResult{}
	grid := fmt.Sprintf("figures=%v benches=%v reps=%d scale=%d seed=%d", g.figures, g.benches, g.reps, g.scale, seed)
	var jnl *journal.Writer
	if o.journal != "" {
		res.JournalOpenNS = time.Now().UnixNano()
		var err error
		if jnl, err = journal.Create(o.journal, "perfbench", grid); err != nil {
			return nil, err
		}
	}

	var ex expt.Executor
	var coord *dist.Coordinator
	var spanMu sync.Mutex
	var first atomic.Int64
	var addr string
	if g.net {
		coord = dist.NewCoordinator(dist.Config{
			Tool: "perfbench", Grid: grid,
			Pool:      expt.PoolConfig{Workers: netWorkers, Retries: 2, Journal: jnl},
			Heartbeat: time.Second,
			// Idle workers re-poll this often; the campaign's end waits
			// for both workers to see the drain, so keep it short.
			WaitMS: 10,
		})
		var err error
		if addr, err = coord.Start("127.0.0.1:0"); err != nil {
			return nil, errors.Join(err, jnl.Close())
		}
		ex = coord
	} else {
		pool := expt.NewPool(expt.PoolConfig{Workers: 1, Journal: jnl})
		pool.SetRun(func(j expt.Job) (*expt.JobResult, time.Duration, error) {
			t0 := time.Now()
			first.CompareAndSwap(0, t0.UnixNano())
			r, err := expt.RunJob(j, nil, kernel.SweepKernelWord, sim.EngineFast, kernel.MemPathFast)
			if o.profile != "" {
				spanMu.Lock()
				res.RunMS = append(res.RunMS, float64(time.Since(t0).Nanoseconds())/1e6)
				spanMu.Unlock()
			}
			return r, 0, err
		})
		ex = pool
	}

	// Every figure prefetches its whole grid before blocking, so once the
	// executor has jobs queued the workers can start leasing at once.
	type built struct {
		fr  expt.FigureResult
		err error
	}
	done := make([]chan built, len(figures))
	for i, f := range figures {
		done[i] = make(chan built, 1)
		go func(f expt.Figure, ch chan built) {
			tb, err := f.Build(opts, ex)
			if err != nil {
				ch <- built{err: err}
				return
			}
			ch <- built{fr: expt.NewFigureResult(f.ID, tb)}
		}(f, done[i])
	}
	ex.Prefetch(jobs)

	var workers []*exec.Cmd
	if coord != nil {
		var err error
		if workers, err = startWorkers(coord, addr, o.profile, res); err != nil {
			// The grid can never finish without its workers.
			for _, w := range workers {
				_ = w.Process.Kill()
				_ = w.Wait()
			}
			return nil, errors.Join(err, coord.Close())
		}
	}
	var figs []expt.FigureResult
	var figErr error
	for _, ch := range done {
		b := <-ch
		if b.err != nil {
			figErr = errors.Join(figErr, b.err)
			continue
		}
		figs = append(figs, b.fr)
	}
	for _, j := range jobs {
		if _, err := ex.Get(j); err != nil {
			figErr = errors.Join(figErr, err)
		}
	}
	var closeErr error
	if coord != nil {
		coord.Drain()
		for _, w := range workers {
			if err := w.Wait(); err != nil {
				closeErr = errors.Join(closeErr, fmt.Errorf("worker: %w", err))
			}
		}
		closeErr = errors.Join(closeErr, coord.Close())
	}
	if jnl != nil {
		if err := errors.Join(jnl.Err(), jnl.Close()); err != nil {
			return nil, err
		}
	}
	if closeErr != nil {
		return nil, closeErr
	}
	res.FirstJobNS = first.Load()

	st := ex.Stats()
	res.Jobs = st.Executed + st.Failed
	res.Failed = st.Failed
	var jrs []*expt.JobResult
	for _, c := range ex.Results() {
		jrs = append(jrs, c.Result)
	}
	res.SimCycles, res.Counts = countsOf(jrs)
	res.Counts["expt.jobs"] = float64(st.Executed)
	res.Counts["expt.retries"] = float64(st.Retries)
	if figErr != nil {
		// Failed jobs already count in res.Failed; a grid that could not
		// finish leaves the digest empty, which never matches.
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", figErr)
		return res, nil
	}
	doc := expt.BuildDocument(ex, figs, 0, g.reps, g.scale)
	doc.Canonicalize()
	h := sha256.New()
	if err := doc.Write(h); err != nil {
		return nil, err
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// startWorkers waits for the grid to be queued at the coordinator, then
// starts the worker processes against it.
func startWorkers(coord *dist.Coordinator, addr, profile string, res *childResult) ([]*exec.Cmd, error) {
	deadline := time.Now().Add(30 * time.Second)
	for coord.Stats().Submitted == 0 {
		if time.Now().After(deadline) {
			return nil, errors.New("no job was submitted within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res.WorkersSpawnNS = time.Now().UnixNano()
	var cmds []*exec.Cmd
	for i := 0; i < netWorkers; i++ {
		args := []string{"worker", "-connect", addr, "-name", fmt.Sprintf("w%d", i)}
		if profile != "" {
			p := fmt.Sprintf("%s.w%d", profile, i)
			args = append(args, "-profile", p)
			res.Profiles = append(res.Profiles, p)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return cmds, err
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

// fleetCondition is the Reloaded campaign hostbench's SimCampaignFast
// runs over the connection fleet: a small quarantine floor keeps epochs
// coming although the fleet's live session state is tiny.
func fleetCondition() harness.Condition {
	return harness.Condition{
		Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
		RevokerCores: []int{2},
		Policy:       quarantine.Policy{HeapFraction: 0.001, MinBytes: 1 << 20, BlockFactor: 1000},
	}
}

func runFleet(seed int64, o childOpts) (*childResult, error) {
	// One P keeps every goroutine handoff of the simulator on one thread.
	// With two, the Go scheduler's idle spinning between handoffs took up
	// to a quarter of the campaign's CPU, and how much varied with the
	// host's load rather than with the program.
	runtime.GOMAXPROCS(1)
	cfg := harness.DefaultConfig()
	cfg.AppCores = []int{0, 1, 3}
	cfg.Seed = seed
	w := fleet.New(8192, 48)
	w.Seed = uint64(seed)
	res := &childResult{Jobs: 1}
	t0 := time.Now()
	res.FirstJobNS = t0.UnixNano()
	r, err := harness.Run(w, fleetCondition(), cfg)
	if o.profile != "" {
		res.RunMS = []float64{float64(time.Since(t0).Nanoseconds()) / 1e6}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: fleet: %v\n", err)
		res.Failed = 1
		res.Counts = map[string]float64{}
		return res, nil
	}
	jr := expt.FromHarness(r, seed)
	res.SimCycles, res.Counts = countsOf([]*expt.JobResult{jr})
	b, err := json.Marshal(struct {
		WallCycles uint64 `json:"wall_cycles"`
		CPUCycles  uint64 `json:"cpu_cycles"`
		DRAMTotal  uint64 `json:"dram_total"`
		Epochs     int    `json:"epochs"`
		Messages   uint64 `json:"messages"`
	}{jr.WallCycles, jr.CPUCycles, jr.DRAMTotal, len(jr.Epochs), w.Messages})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	res.Digest = hex.EncodeToString(sum[:])
	return res, nil
}

// countsOf sums the simulated work counters of a campaign's jobs. They are
// deterministic per seed, so a host-side optimization must leave every one
// unchanged.
func countsOf(jrs []*expt.JobResult) (simCycles uint64, c map[string]float64) {
	var dram, memOps, capLoads, genFaults, tlb, allocOps, blocks, epochs, visited, revoked uint64
	peakPages := 0
	for _, r := range jrs {
		simCycles += r.WallCycles
		dram += r.DRAMTotal
		p := r.Proc
		memOps += p.Loads + p.Stores + p.CapLoads + p.CapStores
		capLoads += p.CapLoads
		genFaults += p.GenFaults
		tlb += p.TLBRefills
		peakPages = max(peakPages, r.PeakRSSPages)
		allocOps += r.Heap.Allocs + r.Heap.Frees
		blocks += r.Quar.Blocks
		epochs += uint64(len(r.Epochs))
		for _, e := range r.Epochs {
			visited += e.CapsVisited
			revoked += e.CapsRevoked
		}
	}
	c = map[string]float64{
		"sim.mcycles":          float64(simCycles) / 1e6,
		"bus.dram_mtxns":       float64(dram) / 1e6,
		"kernel.mem_ops":       float64(memOps),
		"kernel.cap_loads":     float64(capLoads),
		"kernel.gen_faults":    float64(genFaults),
		"vm.tlb_refills":       float64(tlb),
		"vm.peak_mapped_pages": float64(peakPages),
		"alloc.ops":            float64(allocOps),
		"quarantine.blocks":    float64(blocks),
		"revoke.epochs":        float64(epochs),
		"revoke.caps_visited":  float64(visited),
		"expt.jobs":            0,
		"expt.retries":         0,
	}
	if visited > 0 {
		c["revoke.revoked_per_visited"] = float64(revoked) / float64(visited)
	} else {
		c["revoke.revoked_per_visited"] = 0
	}
	return simCycles, c
}
