package ddt

import "fmt"

// arrayList implements the AR and AR(P) kinds.
//
// Simulated layout:
//
//	header block (12 B): [data ptr][len][cap]
//	AR    data block: cap × recordBytes, records stored inline
//	AR(P) data block: cap × PtrBytes slots; each record is its own block
//
// The data block doubles when full and — like the std::vector underneath
// the paper's C++ DDT library — never shrinks on removal; unused capacity
// stays allocated and counts toward the footprint metric, which is
// exactly the space/locality trade-off the paper explores against the
// list kinds.
type arrayList[V any] struct {
	env  *Env
	kind Kind
	rec  uint32 // record payload bytes
	slot uint32 // bytes per data-block slot (rec for AR, PtrBytes for AR(P))

	hdrAddr  uint32
	dataAddr uint32 // 0 when capacity is 0
	capacity int

	vals     []V      // Go-side records, logical order
	recAddrs []uint32 // AR(P) only: record block per logical index
}

const arrayHdrBytes = 12

func newArrayList[V any](k Kind, env *Env, recordBytes uint32) *arrayList[V] {
	a := &arrayList[V]{env: env, kind: k, rec: recordBytes, slot: recordBytes}
	if k == ARP {
		a.slot = PtrBytes
	}
	env.boundary()
	a.hdrAddr = env.heapAlloc(arrayHdrBytes)
	env.write(a.hdrAddr, arrayHdrBytes) // initialize ptr/len/cap
	return a
}

func (a *arrayList[V]) Kind() Kind { return a.kind }
func (a *arrayList[V]) Len() int   { return len(a.vals) }
func (a *arrayList[V]) sealed()    {}

// addrOfSlot returns the simulated address of logical slot i.
func (a *arrayList[V]) addrOfSlot(i int) uint32 {
	return a.dataAddr + uint32(i)*a.slot
}

// ensureCap grows the data block so one more record fits. Growth copies
// the live slots to the new block (bulk read + bulk write) and frees the
// old one.
func (a *arrayList[V]) ensureCap() {
	if len(a.vals) < a.capacity {
		return
	}
	newCap := a.capacity * 2
	if newCap < 4 {
		newCap = 4
	}
	a.reallocate(newCap)
}

func (a *arrayList[V]) reallocate(newCap int) {
	newAddr := a.env.alloc(uint32(newCap) * a.slot)
	live := uint32(len(a.vals))
	if live > 0 {
		a.env.read(a.dataAddr, live*a.slot)
		a.env.write(newAddr, live*a.slot)
	}
	if a.dataAddr != 0 {
		a.env.free(a.dataAddr)
	}
	a.dataAddr = newAddr
	a.capacity = newCap
	a.env.write(a.hdrAddr, 12) // ptr, len, cap rewritten
	a.env.op(2)
}

func (a *arrayList[V]) boundsCheck(i, max int) {
	if i < 0 || i >= max {
		panic(fmt.Sprintf("ddt: %s index %d out of range [0,%d)", a.kind, i, max))
	}
}

func (a *arrayList[V]) Append(v V) {
	a.InsertAt(len(a.vals), v)
}

func (a *arrayList[V]) InsertAt(i int, v V) {
	a.boundsCheck(i, len(a.vals)+1)
	a.env.startOp()
	a.env.read(a.hdrAddr+4, 8) // len, cap
	a.ensureCap()
	a.env.read(a.hdrAddr, 4) // data ptr
	n := len(a.vals)
	if i < n { // shift tail up one slot
		span := uint32(n-i) * a.slot
		a.env.read(a.addrOfSlot(i), span)
		a.env.write(a.addrOfSlot(i+1), span)
		a.env.op(uint64(n - i))
	}
	if a.kind == ARP {
		recAddr := a.env.alloc(a.rec)
		a.env.write(recAddr, a.rec)          // store the record
		a.env.write(a.addrOfSlot(i), a.slot) // store its pointer
		a.recAddrs = append(a.recAddrs, 0)
		copy(a.recAddrs[i+1:], a.recAddrs[i:])
		a.recAddrs[i] = recAddr
	} else {
		a.env.write(a.addrOfSlot(i), a.slot) // store the record inline
	}
	a.vals = append(a.vals, v)
	copy(a.vals[i+1:], a.vals[i:])
	a.vals[i] = v
	a.env.write(a.hdrAddr+4, 4) // len
	a.env.op(1)
}

func (a *arrayList[V]) Get(i int) V {
	a.boundsCheck(i, len(a.vals))
	a.env.startOp()
	a.env.read(a.hdrAddr, 4) // data ptr
	a.env.op(1)              // index arithmetic
	if a.kind == ARP {
		a.env.read(a.addrOfSlot(i), PtrBytes)
		a.env.read(a.recAddrs[i], a.rec)
	} else {
		a.env.read(a.addrOfSlot(i), a.rec)
	}
	return a.vals[i]
}

func (a *arrayList[V]) Set(i int, v V) {
	a.boundsCheck(i, len(a.vals))
	a.env.startOp()
	a.env.read(a.hdrAddr, 4)
	a.env.op(1)
	if a.kind == ARP {
		a.env.read(a.addrOfSlot(i), PtrBytes)
		a.env.write(a.recAddrs[i], a.rec)
	} else {
		a.env.write(a.addrOfSlot(i), a.rec)
	}
	a.vals[i] = v
}

func (a *arrayList[V]) RemoveAt(i int) V {
	a.boundsCheck(i, len(a.vals))
	a.env.startOp()
	a.env.read(a.hdrAddr, 8) // data ptr, len
	v := a.vals[i]
	if a.kind == ARP {
		a.env.read(a.addrOfSlot(i), PtrBytes)
		a.env.read(a.recAddrs[i], a.rec) // fetch the record being removed
		a.env.free(a.recAddrs[i])
		copy(a.recAddrs[i:], a.recAddrs[i+1:])
		a.recAddrs = a.recAddrs[:len(a.recAddrs)-1]
	} else {
		a.env.read(a.addrOfSlot(i), a.rec)
	}
	n := len(a.vals)
	if i < n-1 { // shift tail down one slot
		span := uint32(n-1-i) * a.slot
		a.env.read(a.addrOfSlot(i+1), span)
		a.env.write(a.addrOfSlot(i), span)
		a.env.op(uint64(n - 1 - i))
	}
	copy(a.vals[i:], a.vals[i+1:])
	a.vals = a.vals[:n-1]
	a.env.write(a.hdrAddr+4, 4) // len
	return v
}

func (a *arrayList[V]) Clear() {
	a.env.startOp()
	if a.kind == ARP {
		for _, addr := range a.recAddrs {
			a.env.free(addr)
		}
		a.recAddrs = a.recAddrs[:0]
	}
	if a.dataAddr != 0 {
		a.env.free(a.dataAddr)
		a.dataAddr = 0
	}
	a.capacity = 0
	a.vals = a.vals[:0]
	a.env.write(a.hdrAddr, arrayHdrBytes)
}

func (a *arrayList[V]) Iterate(fn func(i int, v V) bool) {
	a.env.startOp()
	if len(a.vals) == 0 {
		a.env.read(a.hdrAddr+4, 4) // len
		return
	}
	a.env.read(a.hdrAddr, 8) // data ptr, len
	for i, v := range a.vals {
		a.env.op(1)
		if a.kind == ARP {
			a.env.read(a.addrOfSlot(i), PtrBytes)
			a.env.read(a.recAddrs[i], a.rec)
		} else {
			a.env.read(a.addrOfSlot(i), a.rec)
		}
		if !fn(i, v) {
			return
		}
	}
}
