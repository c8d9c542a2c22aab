// Package ddt is the dynamic data type (DDT) library of the reproduction:
// the 10 container implementations the paper's exploration draws from
// ("The C++ DDT library is comprised of 10 different DDTs", §3.1, developed
// in [Mamagkakis et al., WWIC 2004]).
//
// Every DDT implements the same sequence abstraction (List) so the
// instrumentation of an application never changes while the exploration
// swaps implementations — exactly the paper's "keeping the same
// instrumentation and changing the DDT implementation" step.
//
// The ten kinds combine three layout families with two refinements:
//
//	AR        dynamic array of records (contiguous, ×2 growth)
//	AR(P)     dynamic array of pointers to individually allocated records
//	SLL       singly linked list, one record per node
//	DLL       doubly linked list (walks from the nearest end)
//	SLL(O)    SLL with a roving pointer (caches the last position)
//	DLL(O)    DLL with a roving pointer
//	SLL(AR)   singly linked list of record chunks (K records per node)
//	DLL(AR)   doubly linked list of chunks
//	SLL(ARO)  chunked list with a roving pointer
//	DLL(ARO)  doubly chunked list with a roving pointer
//
// Each implementation is a genuine Go data structure *and* a simulation:
// every operation issues the word-level reads and writes its layout implies
// against the virtual heap addresses of its blocks, so the platform
// simulator observes footprint, locality and pointer-chasing faithfully.
// Pointers are 4 bytes (32-bit embedded target).
package ddt

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/profiler"
	"repro/internal/vheap"
)

// PtrBytes is the simulated pointer size (32-bit platform).
const PtrBytes = 4

// DefaultChunkCap is the number of records per chunk in the (AR) chunked
// list variants.
const DefaultChunkCap = 8

// Kind identifies one of the ten DDT implementations.
type Kind uint8

// The ten DDTs of the library, in the canonical order used for
// combination enumeration.
const (
	AR Kind = iota
	ARP
	SLL
	DLL
	SLLO
	DLLO
	SLLAR
	DLLAR
	SLLARO
	DLLARO
	numKinds
)

// NumKinds is the size of the DDT library (10).
const NumKinds = int(numKinds)

var kindNames = [...]string{
	AR:     "AR",
	ARP:    "AR(P)",
	SLL:    "SLL",
	DLL:    "DLL",
	SLLO:   "SLL(O)",
	DLLO:   "DLL(O)",
	SLLAR:  "SLL(AR)",
	DLLAR:  "DLL(AR)",
	SLLARO: "SLL(ARO)",
	DLLARO: "DLL(ARO)",
}

// String returns the library name of the kind (e.g. "SLL(AR)").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind is the inverse of String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("ddt: unknown kind %q", s)
}

// AllKinds returns the ten kinds in canonical order.
func AllKinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// List is the sequence abstraction shared by all ten DDTs. Indices are
// logical positions in [0, Len()). All implementations keep the Go values
// they store consistent with the simulated layout. The interface is
// sealed: New and NewChunked build its only implementations, which is
// what lets Scan and Find dispatch on them.
type List[V any] interface {
	// Kind reports which of the ten implementations this is.
	Kind() Kind
	// Len returns the number of stored records.
	Len() int
	// Append adds v after the last record.
	Append(v V)
	// InsertAt inserts v so that it becomes record i (0 <= i <= Len()).
	InsertAt(i int, v V)
	// Get returns record i.
	Get(i int) V
	// Set overwrites record i with v.
	Set(i int, v V)
	// RemoveAt deletes and returns record i.
	RemoveAt(i int) V
	// Clear deletes all records and releases their storage.
	Clear()
	// Iterate calls fn on each record in order until fn returns false.
	// Iteration uses an internal cursor, so one step costs O(1) for every
	// implementation; the layout decides how many memory accesses a step
	// issues.
	Iterate(fn func(i int, v V) bool)

	sealed()
}

// Env is the execution environment a list charges its costs to: the heap
// provides addresses and tracks footprint, the hierarchy accounts accesses,
// cycles and (via the energy model) joules, and the optional probe
// attributes the accesses to the container's role for dominance profiling.
//
// Arena and Lane, when set (apps.EnvFor wires them on an arena-enabled
// platform), bind the environment to one container role: blocks come from
// the role's private address arena, and every container operation
// announces the role's lane through the hierarchy's boundary seam. That
// pair of properties — role-private addresses, role-attributed event
// spans — is what makes one role's access sub-stream independent of every
// other role's DDT choice, the soundness basis of compositional capture.
type Env struct {
	Heap  *vheap.Heap
	Mem   *memsim.Hierarchy
	Probe *profiler.Probe

	// Arena, when non-nil, supplies this role's block addresses instead
	// of the heap's default space.
	Arena *vheap.Arena
	// Lane is the boundary-marker lane announced at every operation
	// start: 0 (ambient) without role binding, the role's 1-based index
	// otherwise.
	Lane int
}

func (e *Env) read(addr, size uint32) {
	e.Mem.Read(addr, size)
	if e.Probe != nil {
		e.Probe.AddRead(uint64((size + 3) / 4))
	}
}

func (e *Env) write(addr, size uint32) {
	e.Mem.Write(addr, size)
	if e.Probe != nil {
		e.Probe.AddWrite(uint64((size + 3) / 4))
	}
}

func (e *Env) op(n uint64) {
	e.Mem.Op(n)
}

// Op charges n ALU cycles to the environment. Applications use it for the
// compute that accompanies container accesses (key comparisons, header
// parsing) so that execution time reflects more than raw memory traffic.
func (e *Env) Op(n uint64) {
	e.op(n)
}

func (e *Env) startOp() {
	e.Mem.Boundary(e.Lane)
	if e.Probe != nil {
		e.Probe.AddOp()
	}
}

// boundary announces an operation start without counting a profiled op —
// constructors use it so their allocations are attributed to the role's
// lane while profiling still counts only List operations.
func (e *Env) boundary() {
	e.Mem.Boundary(e.Lane)
}

// heapAlloc reserves a raw block from the role's arena (or the heap's
// default space), without charging allocator bookkeeping — the
// constructor-header path.
func (e *Env) heapAlloc(size uint32) uint32 {
	if e.Arena != nil {
		return e.Arena.Alloc(size)
	}
	return e.Heap.Alloc(size)
}

// alloc reserves a block and charges the allocator's own work: writing the
// block header and a few cycles of free-list bookkeeping. This is the
// dynamic-memory-management cost that makes per-record node allocation
// (SLL/DLL/AR(P)) visibly more expensive than bulk array growth under
// churn — a first-order effect in the paper's trade-offs.
func (e *Env) alloc(size uint32) uint32 {
	addr := e.heapAlloc(size)
	e.write(addr-vheap.HeaderBytes, vheap.HeaderBytes)
	e.op(4)
	return addr
}

// free releases a block, charging the header read/update of the free-list
// insert.
func (e *Env) free(addr uint32) {
	e.read(addr-vheap.HeaderBytes, PtrBytes)
	e.write(addr-vheap.HeaderBytes, PtrBytes)
	e.op(4)
	e.Heap.Free(addr)
}

// New constructs a list of the given kind storing records of recordBytes
// simulated bytes each. recordBytes must be positive; it is the payload
// size of the application's record (link fields and chunk headers are
// added by the implementation). It panics on an unknown kind, matching the
// constructor behaviour of the C++ library.
func New[V any](k Kind, env *Env, recordBytes uint32) List[V] {
	if recordBytes == 0 {
		panic("ddt: recordBytes must be positive")
	}
	switch k {
	case AR, ARP:
		return newArrayList[V](k, env, recordBytes)
	case SLL, DLL, SLLO, DLLO:
		return newLinkedList[V](k, env, recordBytes)
	case SLLAR, DLLAR, SLLARO, DLLARO:
		return newChunkedList[V](k, env, recordBytes, DefaultChunkCap)
	default:
		panic(fmt.Sprintf("ddt: unknown kind %d", k))
	}
}

// NewChunked constructs one of the chunked kinds with an explicit records-
// per-chunk capacity (the K of the (AR) variants) instead of
// DefaultChunkCap. Larger chunks buy locality and fewer hops at the price
// of bigger in-chunk shifts and coarser footprint granularity — the design
// knob the ablation benchmarks sweep. It panics if k is not a chunked
// kind or chunkCap < 2.
func NewChunked[V any](k Kind, env *Env, recordBytes uint32, chunkCap int) List[V] {
	if recordBytes == 0 {
		panic("ddt: recordBytes must be positive")
	}
	if chunkCap < 2 {
		panic("ddt: chunkCap must be at least 2")
	}
	switch k {
	case SLLAR, DLLAR, SLLARO, DLLARO:
		return newChunkedList[V](k, env, recordBytes, chunkCap)
	default:
		panic(fmt.Sprintf("ddt: %v is not a chunked kind", k))
	}
}

// Find scans l in order and returns the index and value of the first
// record for which pred is true. The scan costs one iterator step per
// visited record plus cmpOps ALU cycles per comparison, which models the
// key comparison of a lookup ("access a record" in the paper's
// instrumentation vocabulary).
func Find[V any](l List[V], env *Env, cmpOps uint64, pred func(V) bool) (int, V, bool) {
	var (
		foundIdx = -1
		foundVal V
	)
	Scan(l, func(i int, v V) bool {
		env.op(cmpOps)
		if pred(v) {
			foundIdx, foundVal = i, v
			return false
		}
		return true
	})
	return foundIdx, foundVal, foundIdx >= 0
}

// Scan is l.Iterate(fn) called on l's concrete type. A closure passed
// through the List interface escapes, and with it every variable it
// captures, so each scan of a hot lookup would allocate; called
// directly, fn stays on the caller's stack.
func Scan[V any](l List[V], fn func(i int, v V) bool) {
	switch c := l.(type) {
	case *arrayList[V]:
		c.Iterate(fn)
	case *linkedList[V]:
		c.Iterate(fn)
	case *chunkedList[V]:
		c.Iterate(fn)
	default:
		panic(fmt.Sprintf("ddt: %T is not a library list", l))
	}
}
