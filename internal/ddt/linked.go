package ddt

import "fmt"

// linkedList implements the SLL, DLL, SLL(O) and DLL(O) kinds.
//
// Simulated layout:
//
//	header block: [head][tail][len] (12 B), +[rov ptr][rov idx] (20 B) for
//	the (O) variants
//	SLL node: [next][record]            (4 + recordBytes)
//	DLL node: [next][prev][record]      (8 + recordBytes)
//
// Indexed access walks the chain, reading one link word per hop. DLL walks
// from the nearer end. The (O) roving-pointer refinement caches the last
// position touched, so runs of nearby indexed accesses (sequential scans
// through Get(i), queue rotations) cost O(1) hops — the classic refinement
// of the paper's DDT library.
type linkedList[V any] struct {
	env    *Env
	kind   Kind
	rec    uint32
	doubly bool
	roving bool
	link   uint32 // link-field bytes per node: 4 (SLL) or 8 (DLL)

	hdrAddr uint32
	head    *llNode[V]
	tail    *llNode[V]
	length  int

	rovNode *llNode[V] // (O) variants: last node touched
	rovIdx  int
}

type llNode[V any] struct {
	next, prev *llNode[V]
	addr       uint32
	val        V
}

func newLinkedList[V any](k Kind, env *Env, recordBytes uint32) *linkedList[V] {
	l := &linkedList[V]{env: env, kind: k, rec: recordBytes}
	l.doubly = k == DLL || k == DLLO
	l.roving = k == SLLO || k == DLLO
	l.link = PtrBytes
	if l.doubly {
		l.link = 2 * PtrBytes
	}
	hdrBytes := uint32(12)
	if l.roving {
		hdrBytes = 20
	}
	env.boundary()
	l.hdrAddr = env.heapAlloc(hdrBytes)
	env.write(l.hdrAddr, hdrBytes)
	return l
}

func (l *linkedList[V]) Kind() Kind { return l.kind }
func (l *linkedList[V]) Len() int   { return l.length }
func (l *linkedList[V]) sealed()    {}

func (l *linkedList[V]) boundsCheck(i, max int) {
	if i < 0 || i >= max {
		panic(fmt.Sprintf("ddt: %s index %d out of range [0,%d)", l.kind, i, max))
	}
}

// recAddr returns the simulated address of a node's record.
func (l *linkedList[V]) recAddr(n *llNode[V]) uint32 { return n.addr + l.link }

// hopForward follows one next pointer, charging the link read.
func (l *linkedList[V]) hopForward(n *llNode[V]) *llNode[V] {
	l.env.read(n.addr, PtrBytes)
	l.env.op(1)
	return n.next
}

// hopBack follows one prev pointer (DLL variants only).
func (l *linkedList[V]) hopBack(n *llNode[V]) *llNode[V] {
	l.env.read(n.addr+PtrBytes, PtrBytes)
	l.env.op(1)
	return n.prev
}

// walk returns the node at logical index i, charging the traversal from
// the cheapest available start point (head; tail if doubly; roving
// position if enabled).
func (l *linkedList[V]) walk(i int) *llNode[V] {
	// Candidate starts: (distance, walker).
	type start struct {
		dist    int
		node    *llNode[V]
		forward bool
		hdrOff  uint32 // header field to read for the start pointer
	}
	best := start{dist: i, node: l.head, forward: true, hdrOff: 0}
	if l.doubly {
		if back := l.length - 1 - i; back < best.dist {
			best = start{dist: back, node: l.tail, forward: false, hdrOff: 4}
		}
	}
	if l.roving && l.rovNode != nil {
		if i >= l.rovIdx && i-l.rovIdx < best.dist {
			best = start{dist: i - l.rovIdx, node: l.rovNode, forward: true, hdrOff: 12}
		}
		if l.doubly && i < l.rovIdx && l.rovIdx-i < best.dist {
			best = start{dist: l.rovIdx - i, node: l.rovNode, forward: false, hdrOff: 12}
		}
	}
	l.env.read(l.hdrAddr+best.hdrOff, PtrBytes)
	n := best.node
	for d := 0; d < best.dist; d++ {
		if best.forward {
			n = l.hopForward(n)
		} else {
			n = l.hopBack(n)
		}
	}
	l.setRoving(n, i)
	return n
}

// setRoving caches position i, updating the header's roving fields.
func (l *linkedList[V]) setRoving(n *llNode[V], i int) {
	if !l.roving {
		return
	}
	l.rovNode, l.rovIdx = n, i
	l.env.write(l.hdrAddr+12, 8)
}

// clearRoving resets the cache (after structural changes that invalidate it).
func (l *linkedList[V]) clearRoving() {
	if !l.roving {
		return
	}
	l.rovNode, l.rovIdx = nil, 0
	l.env.write(l.hdrAddr+12, 8)
}

func (l *linkedList[V]) newNode(v V) *llNode[V] {
	n := &llNode[V]{val: v, addr: l.env.alloc(l.link + l.rec)}
	l.env.write(n.addr, l.link)      // link fields
	l.env.write(l.recAddr(n), l.rec) // record payload
	return n
}

func (l *linkedList[V]) Append(v V) {
	l.env.startOp()
	l.env.read(l.hdrAddr+4, 8) // tail, len
	n := l.newNode(v)
	if l.tail == nil {
		l.head, l.tail = n, n
	} else {
		l.env.write(l.tail.addr, PtrBytes) // tail.next = n
		l.tail.next = n
		if l.doubly {
			l.env.write(n.addr+PtrBytes, PtrBytes) // n.prev = tail
			n.prev = l.tail
		}
		l.tail = n
	}
	l.length++
	l.env.write(l.hdrAddr, 12) // head, tail, len
	l.env.op(1)
}

func (l *linkedList[V]) InsertAt(i int, v V) {
	l.boundsCheck(i, l.length+1)
	if i == l.length {
		l.Append(v)
		return
	}
	l.env.startOp()
	at := l.walk(i)         // node currently at position i
	prev := l.prevOf(at, i) // capture before relinking
	n := l.newNode(v)

	n.next = at
	l.env.write(n.addr, PtrBytes)
	if l.doubly {
		n.prev = prev
		l.env.write(n.addr+PtrBytes, PtrBytes)
		l.env.write(at.addr+PtrBytes, PtrBytes) // at.prev = n
		at.prev = n
	}
	if prev != nil {
		l.env.write(prev.addr, PtrBytes) // prev.next = n
		prev.next = n
	} else {
		l.head = n
	}
	l.length++
	l.env.write(l.hdrAddr, 12)
	l.setRoving(n, i)
	l.env.op(1)
}

// prevOf returns the predecessor of node at index i. For a DLL it is one
// prev-link read; for an SLL the walk already positioned us, so the
// predecessor requires a second walk to i-1 (this is the real cost of
// singly linked insertion/removal and is charged as such).
func (l *linkedList[V]) prevOf(n *llNode[V], i int) *llNode[V] {
	if i == 0 {
		return nil
	}
	if l.doubly {
		l.env.read(n.addr+PtrBytes, PtrBytes)
		return n.prev
	}
	return l.walk(i - 1)
}

func (l *linkedList[V]) Get(i int) V {
	l.boundsCheck(i, l.length)
	l.env.startOp()
	n := l.walk(i)
	l.env.read(l.recAddr(n), l.rec)
	return n.val
}

func (l *linkedList[V]) Set(i int, v V) {
	l.boundsCheck(i, l.length)
	l.env.startOp()
	n := l.walk(i)
	l.env.write(l.recAddr(n), l.rec)
	n.val = v
}

func (l *linkedList[V]) RemoveAt(i int) V {
	l.boundsCheck(i, l.length)
	l.env.startOp()
	n := l.walk(i)
	l.env.read(l.recAddr(n), l.rec) // fetch the record being removed
	v := n.val

	prev := l.prevOf(n, i)
	if prev != nil {
		l.env.read(n.addr, PtrBytes)     // n.next
		l.env.write(prev.addr, PtrBytes) // prev.next = n.next
		prev.next = n.next
	} else {
		l.env.read(n.addr, PtrBytes)
		l.head = n.next
	}
	if l.doubly && n.next != nil {
		l.env.write(n.next.addr+PtrBytes, PtrBytes) // next.prev = prev
		n.next.prev = prev
	}
	if l.tail == n {
		l.tail = prev
	}
	l.length--
	l.env.free(n.addr)
	l.env.write(l.hdrAddr, 12)
	// The roving cache may point at the removed node or be offset; reset
	// to the successor when possible, else drop it.
	if l.roving {
		if n.next != nil && i < l.length {
			l.setRoving(n.next, i)
		} else {
			l.clearRoving()
		}
	}
	return v
}

func (l *linkedList[V]) Clear() {
	l.env.startOp()
	l.env.read(l.hdrAddr, PtrBytes)
	for n := l.head; n != nil; {
		next := n.next
		l.env.read(n.addr, PtrBytes) // follow chain while freeing
		l.env.free(n.addr)
		n = next
	}
	l.head, l.tail, l.length = nil, nil, 0
	l.env.write(l.hdrAddr, 12)
	l.clearRoving()
}

func (l *linkedList[V]) Iterate(fn func(i int, v V) bool) {
	l.env.startOp()
	l.env.read(l.hdrAddr, PtrBytes) // head
	i := 0
	for n := l.head; n != nil; n = n.next {
		l.env.read(l.recAddr(n), l.rec)
		l.env.read(n.addr, PtrBytes) // follow next (nil test included)
		l.env.op(1)
		if !fn(i, n.val) {
			// Leaving the cursor where a scan stopped is what the roving
			// pointer is for.
			l.setRoving(n, i)
			return
		}
		i++
	}
}
