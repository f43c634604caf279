package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the per-layer host-CPU buckets, in report order. Every
// repro/internal package whose first path element is listed is a layer of
// its own; runtime.gc takes GC mark, sweep and assist time; other takes the
// rest (unlisted internal packages and stacks with no internal frame).
var layers = []string{
	"sim", "bus", "tmem", "shadow", "vm", "kernel", "ca", "alloc",
	"quarantine", "revoke", "workload", "harness", "expt", "dist", "journal",
	"runtime.gc", "other",
}

const internalPrefix = "repro/internal/"

// gcFrame reports whether fn is garbage-collector work: background and
// assist marking, sweeping, scavenging, and the runtime's synthetic _GC
// frame for samples taken while the collector held the thread.
func gcFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime._GC", "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
		"runtime.markroot", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return false
}

// layerOf charges one sample's stack, given leaf first, to a layer: GC
// work anywhere on the stack goes to runtime.gc; otherwise runtime and
// standard-library frames are charged to the nearest repro/internal
// caller, whose package names the layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// cpuProfile is one CPU profile as `go tool pprof -traces` prints it.
type cpuProfile struct {
	stacks [][]string // function names per sample, leaf first
	ns     []int64    // CPU time per sample
	// totalNS is pprof's own "Total samples" header figure, rounded to
	// its display precision, or -1 when the profile records no duration.
	totalNS int64
}

// attribution is host CPU per layer, in nanoseconds, over one or more
// profiles.
type attribution struct {
	byLayer map[string]int64
	// headerNS sums the profiles' pprof header totals (those that have one).
	headerNS int64
	// parsedNS sums the samples of the profiles with a header total.
	parsedNS int64
}

func (a *attribution) add(p *cpuProfile) {
	if a.byLayer == nil {
		a.byLayer = map[string]int64{}
	}
	var sum int64
	for i, st := range p.stacks {
		a.byLayer[layerOf(st)] += p.ns[i]
		sum += p.ns[i]
	}
	if p.totalNS >= 0 {
		a.headerNS += p.totalNS
		a.parsedNS += sum
	}
}

// totalNS is the CPU time of every attributed sample.
func (a *attribution) totalNS() int64 {
	var sum int64
	for _, v := range a.byLayer {
		sum += v
	}
	return sum
}

// check verifies that the layers sum to pprof's own profile total within
// 1%. layerOf puts every sample in exactly one layer, so this checks the
// text parse rather than the attribution rule: a sample block skipped,
// counted twice or read in the wrong unit moves the sum. pprof prints its
// header total rounded to two decimals of its unit, hence the tolerance.
func (a *attribution) check() error {
	if a.headerNS == 0 && a.parsedNS == 0 {
		return nil
	}
	if d := math.Abs(float64(a.parsedNS-a.headerNS)) / float64(max(a.headerNS, 1)); d > 0.01 {
		return fmt.Errorf("profile: samples sum to %d ns, pprof's total is %d ns (%.2f%% apart)", a.parsedNS, a.headerNS, 100*d)
	}
	return nil
}

// readProfile reads a runtime/pprof CPU profile through the Go toolchain's
// own `go tool pprof -traces`, which prints every sample's value and
// symbolized stack.
func readProfile(path string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	p, err := parseTraces(out)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return p, nil
}

// traceSep starts every sample block of `pprof -traces`; the value column
// is as wide as its dashes.
const traceSep = "-----------+"

// parseTraces reads `pprof -traces` output: a header, then one block per
// sample whose first line holds the value and the leaf frame, and whose
// further lines hold the callers.
func parseTraces(b []byte) (*cpuProfile, error) {
	p := &cpuProfile{totalNS: -1}
	const valueCol = len(traceSep) - 1
	body := false
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, traceSep):
			body = true
		case !body:
			if _, t, ok := strings.Cut(line, "Total samples = "); ok {
				ns, err := parseDuration(strings.TrimSpace(strings.SplitN(t, "(", 2)[0]))
				if err != nil {
					return nil, err
				}
				p.totalNS = ns
			}
		case len(line) <= valueCol:
			// A blank line or a label line carries no frame.
		case strings.TrimSpace(line[:valueCol]) != "":
			v, frame, _ := strings.Cut(strings.TrimSpace(line), " ")
			ns, err := parseDuration(v)
			if err != nil {
				return nil, err
			}
			p.ns = append(p.ns, ns)
			p.stacks = append(p.stacks, []string{frameName(frame)})
		case len(p.stacks) > 0:
			last := len(p.stacks) - 1
			p.stacks[last] = append(p.stacks[last], frameName(line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !body {
		return nil, fmt.Errorf("not pprof -traces output")
	}
	return p, nil
}

func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// durationUnits are the time units pprof labels values with.
var durationUnits = map[string]float64{
	"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9, "days": 86400e9,
}

// parseDuration reads a pprof time label such as "10ms" or "3.10s".
func parseDuration(s string) (int64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return r >= 'a' && r <= 'z' })
	if i <= 0 {
		return 0, fmt.Errorf("pprof value %q has no unit", s)
	}
	scale, ok := durationUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("pprof value %q: unknown unit", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return int64(math.Round(v * scale)), nil
}
