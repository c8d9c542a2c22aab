package ddt

import "fmt"

// chunkedList implements the SLL(AR), DLL(AR), SLL(ARO) and DLL(ARO)
// kinds: linked lists whose nodes are fixed-capacity arrays of records
// ("chunks"). Chunking trades pointer-chasing for in-chunk shifting: a
// traversal hops length/K times instead of length times and enjoys array
// locality inside each chunk, while inserts and removals shift at most K
// records. This hybrid is the library's middle ground between AR and SLL.
//
// Simulated layout:
//
//	list header: [head][tail][len] (12 B), +[rov ptr][rov base] (20 B)
//	             for the (ARO) variants
//	chunk: [next](+[prev])[count][K × record]
//
// A chunk is freed only when it becomes empty; partially filled chunks
// keep their full allocation, which is the footprint cost of the scheme.
type chunkedList[V any] struct {
	env    *Env
	kind   Kind
	rec    uint32
	doubly bool
	roving bool
	link   uint32 // chunk link bytes: 4 or 8
	cap    int    // records per chunk (K)

	hdrAddr uint32
	head    *chunk[V]
	tail    *chunk[V]
	length  int

	rovChunk *chunk[V]
	rovBase  int // logical index of rovChunk's first record
}

type chunk[V any] struct {
	next, prev *chunk[V]
	addr       uint32
	vals       []V
}

func newChunkedList[V any](k Kind, env *Env, recordBytes uint32, chunkCap int) *chunkedList[V] {
	c := &chunkedList[V]{env: env, kind: k, rec: recordBytes, cap: chunkCap}
	c.doubly = k == DLLAR || k == DLLARO
	c.roving = k == SLLARO || k == DLLARO
	c.link = PtrBytes
	if c.doubly {
		c.link = 2 * PtrBytes
	}
	hdrBytes := uint32(12)
	if c.roving {
		hdrBytes = 20
	}
	env.boundary()
	c.hdrAddr = env.heapAlloc(hdrBytes)
	env.write(c.hdrAddr, hdrBytes)
	return c
}

func (c *chunkedList[V]) Kind() Kind { return c.kind }
func (c *chunkedList[V]) Len() int   { return c.length }
func (c *chunkedList[V]) sealed()    {}

// chunkBytes is the simulated block size of one chunk.
func (c *chunkedList[V]) chunkBytes() uint32 {
	return c.link + 4 + uint32(c.cap)*c.rec
}

// countAddr is the address of a chunk's count field.
func (c *chunkedList[V]) countAddr(ch *chunk[V]) uint32 { return ch.addr + c.link }

// recAddr is the address of record off within chunk ch.
func (c *chunkedList[V]) recAddr(ch *chunk[V], off int) uint32 {
	return ch.addr + c.link + 4 + uint32(off)*c.rec
}

func (c *chunkedList[V]) boundsCheck(i, max int) {
	if i < 0 || i >= max {
		panic(fmt.Sprintf("ddt: %s index %d out of range [0,%d)", c.kind, i, max))
	}
}

func (c *chunkedList[V]) newChunk() *chunk[V] {
	ch := &chunk[V]{addr: c.env.alloc(c.chunkBytes())}
	ch.vals = make([]V, 0, c.cap)
	c.env.write(ch.addr, c.link+4) // links + count
	return ch
}

// walkChunk locates the chunk containing logical index i, charging the
// traversal from the cheapest start (head; tail if doubly; roving cache if
// enabled). It returns the chunk and the logical index of its first
// record, and refreshes the roving cache.
func (c *chunkedList[V]) walkChunk(i int) (*chunk[V], int) {
	type start struct {
		dist    int // distance in records, proxy for chunk hops
		ch      *chunk[V]
		base    int
		forward bool
		hdrOff  uint32
	}
	best := start{dist: i, ch: c.head, base: 0, forward: true, hdrOff: 0}
	if c.doubly && c.tail != nil {
		tailBase := c.length - len(c.tail.vals)
		if back := c.length - 1 - i; back < best.dist {
			best = start{dist: back, ch: c.tail, base: tailBase, forward: false, hdrOff: 4}
		}
	}
	if c.roving && c.rovChunk != nil {
		if i >= c.rovBase && i-c.rovBase < best.dist {
			best = start{dist: i - c.rovBase, ch: c.rovChunk, base: c.rovBase, forward: true, hdrOff: 12}
		}
		if c.doubly && i < c.rovBase && c.rovBase-i < best.dist {
			best = start{dist: c.rovBase - i, ch: c.rovChunk, base: c.rovBase, forward: false, hdrOff: 12}
		}
	}
	c.env.read(c.hdrAddr+best.hdrOff, PtrBytes)

	ch, base := best.ch, best.base
	if best.forward {
		for {
			c.env.read(c.countAddr(ch), 4)
			c.env.op(1)
			if i < base+len(ch.vals) {
				break
			}
			c.env.read(ch.addr, PtrBytes) // next
			base += len(ch.vals)
			ch = ch.next
		}
	} else {
		c.env.read(c.countAddr(ch), 4)
		c.env.op(1)
		for i < base {
			c.env.read(ch.addr+PtrBytes, PtrBytes) // prev
			ch = ch.prev
			c.env.read(c.countAddr(ch), 4)
			c.env.op(1)
			base -= len(ch.vals)
		}
	}
	c.setRoving(ch, base)
	return ch, base
}

func (c *chunkedList[V]) setRoving(ch *chunk[V], base int) {
	if !c.roving {
		return
	}
	c.rovChunk, c.rovBase = ch, base
	c.env.write(c.hdrAddr+12, 8)
}

func (c *chunkedList[V]) clearRoving() {
	if !c.roving {
		return
	}
	c.rovChunk, c.rovBase = nil, 0
	c.env.write(c.hdrAddr+12, 8)
}

func (c *chunkedList[V]) Append(v V) {
	c.env.startOp()
	c.env.read(c.hdrAddr+4, 8) // tail, len
	if c.tail == nil {
		ch := c.newChunk()
		c.linkInAfter(nil, ch)
	} else {
		c.env.read(c.countAddr(c.tail), 4)
		if len(c.tail.vals) == c.cap {
			ch := c.newChunk()
			c.linkInAfter(c.tail, ch)
			c.tail = ch
		}
	}
	ch := c.tail
	c.env.write(c.recAddr(ch, len(ch.vals)), c.rec)
	c.env.write(c.countAddr(ch), 4)
	ch.vals = append(ch.vals, v)
	c.length++
	c.env.write(c.hdrAddr, 12)
	c.env.op(1)
}

// linkInAfter splices nc into the chain after prev (prev == nil means at
// the head), charging the link writes.
func (c *chunkedList[V]) linkInAfter(prev, nc *chunk[V]) {
	if prev == nil {
		nc.next = c.head
		c.env.write(nc.addr, PtrBytes)
		if c.doubly && nc.next != nil {
			nc.next.prev = nc
			c.env.write(nc.next.addr+PtrBytes, PtrBytes)
		}
		c.head = nc
		if c.tail == nil {
			c.tail = nc
		}
		return
	}
	nc.next = prev.next
	c.env.write(nc.addr, PtrBytes)
	prev.next = nc
	c.env.write(prev.addr, PtrBytes)
	if c.doubly {
		nc.prev = prev
		c.env.write(nc.addr+PtrBytes, PtrBytes)
		if nc.next != nil {
			nc.next.prev = nc
			c.env.write(nc.next.addr+PtrBytes, PtrBytes)
		}
	}
	if c.tail == prev {
		c.tail = nc
	}
}

func (c *chunkedList[V]) InsertAt(i int, v V) {
	c.boundsCheck(i, c.length+1)
	if i == c.length {
		c.Append(v)
		return
	}
	c.env.startOp()
	ch, base := c.walkChunk(i)
	off := i - base

	if len(ch.vals) == c.cap {
		// Split: move the upper half of ch into a fresh chunk.
		nc := c.newChunk()
		half := c.cap / 2
		moved := ch.vals[half:]
		c.env.read(c.recAddr(ch, half), uint32(len(moved))*c.rec)
		c.env.write(c.recAddr(nc, 0), uint32(len(moved))*c.rec)
		nc.vals = append(nc.vals, moved...)
		ch.vals = ch.vals[:half]
		c.env.write(c.countAddr(ch), 4)
		c.env.write(c.countAddr(nc), 4)
		c.linkInAfter(ch, nc)
		c.env.op(uint64(len(moved)))
		if off > half {
			ch, base = nc, base+half
			off = i - base
		}
	}

	n := len(ch.vals)
	if off < n { // shift tail of chunk up
		span := uint32(n-off) * c.rec
		c.env.read(c.recAddr(ch, off), span)
		c.env.write(c.recAddr(ch, off+1), span)
		c.env.op(uint64(n - off))
	}
	c.env.write(c.recAddr(ch, off), c.rec)
	ch.vals = append(ch.vals, v)
	copy(ch.vals[off+1:], ch.vals[off:])
	ch.vals[off] = v
	c.env.write(c.countAddr(ch), 4)
	c.length++
	c.env.write(c.hdrAddr, 12)
	c.setRoving(ch, base)
	c.env.op(1)
}

func (c *chunkedList[V]) Get(i int) V {
	c.boundsCheck(i, c.length)
	c.env.startOp()
	ch, base := c.walkChunk(i)
	c.env.read(c.recAddr(ch, i-base), c.rec)
	return ch.vals[i-base]
}

func (c *chunkedList[V]) Set(i int, v V) {
	c.boundsCheck(i, c.length)
	c.env.startOp()
	ch, base := c.walkChunk(i)
	c.env.write(c.recAddr(ch, i-base), c.rec)
	ch.vals[i-base] = v
}

func (c *chunkedList[V]) RemoveAt(i int) V {
	c.boundsCheck(i, c.length)
	c.env.startOp()
	ch, base := c.walkChunk(i)
	off := i - base
	c.env.read(c.recAddr(ch, off), c.rec)
	v := ch.vals[off]

	n := len(ch.vals)
	if off < n-1 { // shift tail of chunk down
		span := uint32(n-1-off) * c.rec
		c.env.read(c.recAddr(ch, off+1), span)
		c.env.write(c.recAddr(ch, off), span)
		c.env.op(uint64(n - 1 - off))
	}
	copy(ch.vals[off:], ch.vals[off+1:])
	ch.vals = ch.vals[:n-1]
	c.env.write(c.countAddr(ch), 4)
	c.length--
	c.env.write(c.hdrAddr, 12)

	if len(ch.vals) == 0 {
		c.unlink(ch, base)
		c.clearRoving()
	} else {
		c.setRoving(ch, base)
	}
	return v
}

// unlink removes the now-empty chunk from the chain and frees it. Singly
// linked variants must re-walk from the head to find the predecessor,
// which is charged like any other traversal.
func (c *chunkedList[V]) unlink(ch *chunk[V], base int) {
	var prev *chunk[V]
	if c.doubly {
		if ch.prev != nil {
			c.env.read(ch.addr+PtrBytes, PtrBytes)
		}
		prev = ch.prev
	} else if ch != c.head {
		p := c.head
		c.env.read(c.hdrAddr, PtrBytes)
		for p.next != ch {
			c.env.read(p.addr, PtrBytes)
			c.env.op(1)
			p = p.next
		}
		c.env.read(p.addr, PtrBytes)
		prev = p
	}
	if prev == nil {
		c.head = ch.next
	} else {
		prev.next = ch.next
		c.env.write(prev.addr, PtrBytes)
	}
	if c.doubly && ch.next != nil {
		ch.next.prev = prev
		c.env.write(ch.next.addr+PtrBytes, PtrBytes)
	}
	if c.tail == ch {
		c.tail = prev
	}
	c.env.free(ch.addr)
	c.env.write(c.hdrAddr, 12)
}

func (c *chunkedList[V]) Clear() {
	c.env.startOp()
	c.env.read(c.hdrAddr, PtrBytes)
	for ch := c.head; ch != nil; {
		next := ch.next
		c.env.read(ch.addr, PtrBytes)
		c.env.free(ch.addr)
		ch = next
	}
	c.head, c.tail, c.length = nil, nil, 0
	c.env.write(c.hdrAddr, 12)
	c.clearRoving()
}

func (c *chunkedList[V]) Iterate(fn func(i int, v V) bool) {
	c.env.startOp()
	c.env.read(c.hdrAddr, PtrBytes)
	i := 0
	for ch := c.head; ch != nil; ch = ch.next {
		c.env.read(c.countAddr(ch), 4)
		c.env.read(ch.addr, PtrBytes)
		base := i
		for off, v := range ch.vals {
			c.env.read(c.recAddr(ch, off), c.rec)
			c.env.op(1)
			if !fn(i, v) {
				c.setRoving(ch, base)
				return
			}
			i++
		}
	}
}
