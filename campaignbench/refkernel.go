package main

import (
	"runtime"
	"sync"
)

// The reference kernel is a fixed amount of work shaped like the
// program's hot paths. A round times its CPU just before and just after
// its campaign, and the campaign's CPU time is reported in units of it,
// so that it reads the program's cost rather than the speed the shared
// host lent the process at that moment: on the 2-vCPU machine this
// benchmark was built on, the same deterministic campaign took twice the
// CPU time in some half-hour windows as in others. CPU time, not wall
// time, because wall time there also holds the time the hypervisor
// keeps a runnable vCPU waiting (steal), up to a quarter of a busy CPU.
//
// The kernel is the benchmark's own code and must never change with the
// program: a change that makes the program faster lowers the campaign's
// time and leaves the kernel's alone.
//
// It replays a 16 MiB synthetic address stream, twice, through a
// two-level set-associative LRU cache simulation (8 KiB 2-way and
// 128 KiB 8-way, 32-byte lines), as memsim does for every live or
// composed run: memsim is the largest layer of every workload's
// profile. README.md gives how closely the kernel follows the campaigns
// across the host's windows.

const (
	refStreamLen = 1 << 22 // addresses in the synthetic stream
	refPasses    = 2
)

// refInputs are the kernel's inputs. They are built afresh for every
// timing and dropped after it, so the benchmark's own memory never
// shows in a round's peak RSS.
type refInputs struct {
	stream []uint32
}

// newRefInputs builds the stream from a fixed seed: short runs of
// nearby words inside a record, with a jump to another record of a
// 4 MiB region every few accesses.
func newRefInputs() *refInputs {
	in := &refInputs{stream: make([]uint32, refStreamLen)}
	x := uint64(0x9e3779b97f4a7c15)
	var addr uint32
	for i := range in.stream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 == 0 {
			addr = uint32(x>>32) & (4<<20 - 1) &^ 3
		} else {
			addr += uint32(x>>40) & 28
		}
		in.stream[i] = addr
	}
	return in
}

// refCache is a set-associative LRU tag store, most-recently-used first.
type refCache struct {
	tags  []uint32
	assoc uint32
	mask  uint32
}

func newRefCache(sizeBytes, lineBytes, assoc uint32) *refCache {
	sets := sizeBytes / (lineBytes * assoc)
	c := &refCache{tags: make([]uint32, sets*assoc), assoc: assoc, mask: sets - 1}
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
	return c
}

// probe reports whether line hits, and installs it as MRU either way.
func (c *refCache) probe(line uint32) bool {
	base := (line & c.mask) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for i := uint32(0); i < c.assoc; i++ {
		if tags[i] == line {
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			return true
		}
	}
	copy(tags[1:], tags[:c.assoc-1])
	tags[0] = line
	return false
}

// work runs the kernel once and returns a checksum, so the compiler
// keeps the work. It allocates only its two small tag stores.
func (in *refInputs) work() uint64 {
	l1 := newRefCache(8<<10, 32, 2)
	l2 := newRefCache(128<<10, 32, 8)
	var sum uint64
	for range refPasses {
		for _, a := range in.stream {
			line := a >> 5
			if l1.probe(line) {
				sum++
			} else if l2.probe(line) {
				sum += 18
			} else {
				sum += 100
			}
		}
	}
	return sum
}

// refSink keeps the kernel's checksums live.
var refSink uint64

// refKernel runs the kernel on par goroutines at once, par being the
// campaign's worker count, and returns the process CPU seconds it took.
// Building the inputs and collecting the heap happen before the clock
// starts.
func refKernel(par int) float64 {
	if par < 1 {
		par = 1
	}
	in := newRefInputs()
	runtime.GC()
	sums := make([]uint64, par)
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	for g := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = in.work()
		}()
	}
	wg.Wait()
	cpu := cpuSeconds() - cpu0
	for _, s := range sums {
		refSink += s
	}
	return cpu
}
