package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"syscall"
	"time"
)

// The host this benchmark was built on is a shared virtual machine whose
// speed drifts by up to 1.7x within minutes: the same campaign repetition
// took 4.3 s of CPU and, under a minute later, 2.5 s. So the runner also
// times a fixed reference program before and after every measured
// repetition, and scales the repetition's host times by how fast the host
// ran the reference around it (see scaled).
//
// The reference is compiled into the benchmark, so no change to the
// repository can make it faster or slower; only the host can.

// refNominal is about the reference's typical CPU time on the host the
// bounds were set on (a 2-vCPU Intel Xeon VM at 2.0 GHz, Go 1.24). Scaled
// host times read as they would on a host that runs the reference in
// exactly this time.
const refNominal = 250 * time.Millisecond

// referenceMain runs the reference: map updates and deletes, a pointer
// chase through 16 MiB and a sort, the kinds of work the simulator does.
func referenceMain() error {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]uint64)
	for i := 0; i < 1_000_000; i++ {
		v := next()
		m[v&0x3ffff] += v
		if i%3 == 0 {
			delete(m, (v>>20)&0x3ffff)
		}
	}
	type node struct {
		next *node
		v    uint64
		_    [6]uint64
	}
	nodes := make([]*node, 1<<18)
	for i := range nodes {
		nodes[i] = &node{v: uint64(i)}
	}
	for _, n := range nodes {
		n.next = nodes[next()%uint64(len(nodes))]
	}
	var sum uint64
	p := nodes[0]
	for i := 0; i < 2_000_000; i++ {
		sum += p.v
		p = p.next
	}
	a := make([]uint64, 300_000)
	for i := range a {
		a[i] = next()
	}
	slices.Sort(a)
	// Use every result, so that the compiler keeps all the work.
	if sum+uint64(len(m))+a[0] == 42 {
		fmt.Fprintln(os.Stderr, "unlikely")
	}
	return nil
}

// reference runs the reference program as a child and returns its CPU time.
func (d *runner) reference() (time.Duration, error) {
	cmd := exec.CommandContext(d.ctx, d.self, "reference")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("reference: no rusage")
	}
	cpu := time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	fmt.Fprintf(os.Stderr, "perfbench: reference cpu %.3fs\n", cpu.Seconds())
	return cpu, nil
}

// scaled converts a host time of r to the nominal host speed, using the
// mean of the reference runs on either side of r.
func scaled(r *rep, t time.Duration) float64 {
	ref := (r.refBefore + r.refAfter) / 2
	return t.Seconds() * refNominal.Seconds() / ref.Seconds()
}
