package ddt_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/profiler"
	"repro/internal/vheap"
)

// newEnv builds a fresh environment for one test list.
func newEnv() *ddt.Env {
	return &ddt.Env{
		Heap: vheap.New(),
		Mem:  memsim.New(memsim.DefaultConfig()),
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		got, err := ddt.ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ddt.ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestAllKindsCount(t *testing.T) {
	if len(ddt.AllKinds()) != 10 {
		t.Fatalf("the paper's library has 10 DDTs, got %d", len(ddt.AllKinds()))
	}
	if ddt.NumKinds != 10 {
		t.Fatalf("NumKinds = %d, want 10", ddt.NumKinds)
	}
}

func TestAppendGetAllKinds(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 16)
		for i := 0; i < 100; i++ {
			l.Append(i * 3)
		}
		if l.Len() != 100 {
			t.Fatalf("%v: Len = %d, want 100", k, l.Len())
		}
		for i := 0; i < 100; i++ {
			if got := l.Get(i); got != i*3 {
				t.Fatalf("%v: Get(%d) = %d, want %d", k, i, got, i*3)
			}
		}
	}
}

func TestInsertRemoveAllKinds(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 8)
		// Build 0..9 by inserting at the front in reverse.
		for i := 9; i >= 0; i-- {
			l.InsertAt(0, i)
		}
		// Insert in the middle and at the end.
		l.InsertAt(5, 50)
		l.InsertAt(l.Len(), 99)
		want := []int{0, 1, 2, 3, 4, 50, 5, 6, 7, 8, 9, 99}
		checkContents(t, k, l, want)

		if got := l.RemoveAt(5); got != 50 {
			t.Fatalf("%v: RemoveAt(5) = %d, want 50", k, got)
		}
		if got := l.RemoveAt(l.Len() - 1); got != 99 {
			t.Fatalf("%v: RemoveAt(last) = %d, want 99", k, got)
		}
		if got := l.RemoveAt(0); got != 0 {
			t.Fatalf("%v: RemoveAt(0) = %d, want 0", k, got)
		}
		checkContents(t, k, l, []int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	}
}

func TestSetAllKinds(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 8)
		for i := 0; i < 20; i++ {
			l.Append(i)
		}
		for i := 0; i < 20; i += 2 {
			l.Set(i, -i)
		}
		for i := 0; i < 20; i++ {
			want := i
			if i%2 == 0 {
				want = -i
			}
			if got := l.Get(i); got != want {
				t.Fatalf("%v: Get(%d) = %d, want %d", k, i, got, want)
			}
		}
	}
}

func TestClearReleasesStorage(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		env := newEnv()
		l := ddt.New[int](k, env, 24)
		base := env.Heap.LiveBytes() // just the list header
		for i := 0; i < 200; i++ {
			l.Append(i)
		}
		if env.Heap.LiveBytes() <= base {
			t.Fatalf("%v: no heap growth after 200 appends", k)
		}
		l.Clear()
		if l.Len() != 0 {
			t.Fatalf("%v: Len after Clear = %d", k, l.Len())
		}
		if got := env.Heap.LiveBytes(); got != base {
			t.Errorf("%v: LiveBytes after Clear = %d, want header-only %d", k, got, base)
		}
		if err := env.Heap.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		// The list must be reusable after Clear.
		l.Append(7)
		if got := l.Get(0); got != 7 {
			t.Fatalf("%v: Get after Clear+Append = %d, want 7", k, got)
		}
	}
}

func TestRemoveToEmptyAndReuse(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 8)
		for i := 0; i < 17; i++ {
			l.Append(i)
		}
		for l.Len() > 0 {
			l.RemoveAt(l.Len() - 1)
		}
		for i := 0; i < 5; i++ {
			l.Append(100 + i)
		}
		checkContents(t, k, l, []int{100, 101, 102, 103, 104})
	}
}

func TestIterateEarlyStop(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 8)
		for i := 0; i < 30; i++ {
			l.Append(i)
		}
		var visited []int
		l.Iterate(func(i, v int) bool {
			visited = append(visited, v)
			return v < 10
		})
		if len(visited) != 11 {
			t.Fatalf("%v: visited %d elements, want 11 (values 0..10, stopping at 10)", k, len(visited))
		}
	}
}

func TestIterateEmpty(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 8)
		called := false
		l.Iterate(func(int, int) bool { called = true; return true })
		if called {
			t.Errorf("%v: Iterate on empty list invoked fn", k)
		}
	}
}

func TestFind(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		env := newEnv()
		l := ddt.New[int](k, env, 8)
		for i := 0; i < 25; i++ {
			l.Append(i * 2)
		}
		idx, v, ok := ddt.Find(l, env, 1, func(v int) bool { return v == 30 })
		if !ok || idx != 15 || v != 30 {
			t.Fatalf("%v: Find = (%d, %d, %v), want (15, 30, true)", k, idx, v, ok)
		}
		_, _, ok = ddt.Find(l, env, 1, func(v int) bool { return v == 31 })
		if ok {
			t.Fatalf("%v: Find located a missing element", k)
		}
	}
}

// TestScanAllocatesNothing pins that lookups stay off the Go heap: Find
// and Scan reach each kind's Iterate directly, so neither their own
// closures nor the caller's predicate, with the variables it captures,
// escape. A lookup runs once per packet in every case study.
func TestScanAllocatesNothing(t *testing.T) {
	type rec struct{ Key, Val uint64 }
	for _, k := range ddt.AllKinds() {
		env := newEnv()
		l := ddt.New[rec](k, env, 16)
		for i := range uint64(40) {
			l.Append(rec{Key: i, Val: i * 3})
		}
		key, sum := uint64(29), uint64(0)
		if n := testing.AllocsPerRun(50, func() {
			if _, r, ok := ddt.Find(l, env, 2, func(r rec) bool { return r.Key == key }); !ok || r.Val != 87 {
				t.Fatalf("%v: Find(%d) = %+v, %v", k, key, r, ok)
			}
		}); n != 0 {
			t.Errorf("%v: Find allocates %.1f times per call, want 0", k, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			ddt.Scan(l, func(_ int, r rec) bool { sum += r.Val; return r.Key < key })
		}); n != 0 {
			t.Errorf("%v: Scan allocates %.1f times per call, want 0", k, n)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		l := ddt.New[int](k, newEnv(), 8)
		l.Append(1)
		for name, fn := range map[string]func(){
			"Get(-1)":      func() { l.Get(-1) },
			"Get(len)":     func() { l.Get(1) },
			"Set(len)":     func() { l.Set(1, 0) },
			"RemoveAt(-1)": func() { l.RemoveAt(-1) },
			"InsertAt(2)":  func() { l.InsertAt(2, 0) },
		} {
			if !panics(fn) {
				t.Errorf("%v: %s did not panic", k, name)
			}
		}
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// opSeq is a random sequence of list operations for property testing.
type opSeq []opCode

type opCode struct {
	Op  int // 0 append, 1 insert, 2 get, 3 set, 4 remove, 5 iterate, 6 clear
	Idx int // raw index, reduced modulo the current length
	Val int
}

// Generate implements testing/quick.Generator with a bias toward growth so
// sequences exercise non-trivial list sizes.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := 200 + r.Intn(200)
	seq := make(opSeq, n)
	for i := range seq {
		op := r.Intn(10)
		switch {
		case op < 3:
			op = 0 // append
		case op < 5:
			op = 1 // insert
		case op == 9:
			if r.Intn(8) == 0 {
				op = 6 // rare clear
			} else {
				op = 5 // iterate
			}
		default:
			op -= 3 // get/set/remove
		}
		seq[i] = opCode{Op: op, Idx: r.Intn(1 << 20), Val: r.Int()}
	}
	return reflect.ValueOf(seq)
}

// TestQuickReferenceModel drives every DDT and a plain-slice reference
// model with the same random operation sequences and requires identical
// observable behaviour — the core functional-equivalence property that
// lets the exploration swap DDT implementations freely.
func TestQuickReferenceModel(t *testing.T) {
	for _, k := range ddt.AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			f := func(seq opSeq) bool {
				env := newEnv()
				l := ddt.New[int](k, env, 12)
				var ref []int
				for _, oc := range seq {
					switch oc.Op {
					case 0:
						l.Append(oc.Val)
						ref = append(ref, oc.Val)
					case 1:
						i := oc.Idx % (len(ref) + 1)
						l.InsertAt(i, oc.Val)
						ref = append(ref, 0)
						copy(ref[i+1:], ref[i:])
						ref[i] = oc.Val
					case 2:
						if len(ref) == 0 {
							continue
						}
						i := oc.Idx % len(ref)
						if l.Get(i) != ref[i] {
							return false
						}
					case 3:
						if len(ref) == 0 {
							continue
						}
						i := oc.Idx % len(ref)
						l.Set(i, oc.Val)
						ref[i] = oc.Val
					case 4:
						if len(ref) == 0 {
							continue
						}
						i := oc.Idx % len(ref)
						if l.RemoveAt(i) != ref[i] {
							return false
						}
						ref = append(ref[:i], ref[i+1:]...)
					case 5:
						var got []int
						l.Iterate(func(_ int, v int) bool {
							got = append(got, v)
							return true
						})
						if !equalInts(got, ref) {
							return false
						}
					case 6:
						l.Clear()
						ref = ref[:0]
					}
					if l.Len() != len(ref) {
						return false
					}
				}
				// Final full comparison and heap-invariant check.
				var got []int
				l.Iterate(func(_ int, v int) bool { got = append(got, v); return true })
				return equalInts(got, ref) && env.Heap.CheckInvariants() == nil
			}
			cfg := &quick.Config{MaxCount: 20}
			if testing.Short() {
				cfg.MaxCount = 5
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkContents(t *testing.T, k ddt.Kind, l ddt.List[int], want []int) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("%v: Len = %d, want %d", k, l.Len(), len(want))
	}
	var got []int
	l.Iterate(func(_ int, v int) bool { got = append(got, v); return true })
	if !equalInts(got, want) {
		t.Fatalf("%v: contents = %v, want %v", k, got, want)
	}
	for i, w := range want {
		if g := l.Get(i); g != w {
			t.Fatalf("%v: Get(%d) = %d, want %d", k, i, g, w)
		}
	}
}

// TestRovingPointerPaysOff checks the defining property of the (O)
// refinement: a forward sequential scan through Get(i) issues O(1) work
// per step instead of O(i).
func TestRovingPointerPaysOff(t *testing.T) {
	accesses := func(k ddt.Kind) uint64 {
		env := newEnv()
		l := ddt.New[int](k, env, 8)
		for i := 0; i < 400; i++ {
			l.Append(i)
		}
		before := env.Mem.Counts().Accesses()
		for i := 0; i < 400; i++ {
			l.Get(i)
		}
		return env.Mem.Counts().Accesses() - before
	}
	if plain, rov := accesses(ddt.SLL), accesses(ddt.SLLO); rov*10 > plain {
		t.Errorf("SLL(O) sequential scan cost %d accesses, SLL %d; want >=10x reduction", rov, plain)
	}
	if plain, rov := accesses(ddt.SLLAR), accesses(ddt.SLLARO); rov*2 > plain {
		t.Errorf("SLL(ARO) sequential scan cost %d accesses, SLL(AR) %d; want >=2x reduction", rov, plain)
	}
}

// TestDLLWalksFromNearestEnd checks that tail-end indexed access on a DLL
// is far cheaper than on an SLL.
func TestDLLWalksFromNearestEnd(t *testing.T) {
	accesses := func(k ddt.Kind) uint64 {
		env := newEnv()
		l := ddt.New[int](k, env, 8)
		for i := 0; i < 500; i++ {
			l.Append(i)
		}
		before := env.Mem.Counts().Accesses()
		for i := 0; i < 50; i++ {
			l.Get(l.Len() - 1)
		}
		return env.Mem.Counts().Accesses() - before
	}
	if sll, dll := accesses(ddt.SLL), accesses(ddt.DLL); dll*10 > sll {
		t.Errorf("DLL tail access cost %d accesses, SLL %d; want >=10x reduction", dll, sll)
	}
}

// TestChunkedHopsFewer checks that chunked lists traverse with ~K fewer
// pointer hops than plain lists.
func TestChunkedHopsFewer(t *testing.T) {
	accesses := func(k ddt.Kind) uint64 {
		env := newEnv()
		l := ddt.New[int](k, env, 4)
		for i := 0; i < 256; i++ {
			l.Append(i)
		}
		before := env.Mem.Counts().Accesses()
		l.Get(255)
		return env.Mem.Counts().Accesses() - before
	}
	if sll, chunked := accesses(ddt.SLL), accesses(ddt.SLLAR); chunked*3 > sll {
		t.Errorf("SLL(AR) indexed access cost %d accesses, SLL %d; want >=3x reduction", chunked, sll)
	}
}

// TestFootprintOrdering sanity-checks the layout model: for the same
// records, AR(P) and node lists must carry more footprint than plain AR
// (pointer slots / link fields / allocator headers per record).
func TestFootprintOrdering(t *testing.T) {
	peak := func(k ddt.Kind) uint64 {
		env := newEnv()
		// Record size 12 so alignment does not round SLL (4+12) and DLL
		// (8+12) node blocks to the same size class.
		l := ddt.New[int](k, env, 12)
		for i := 0; i < 1000; i++ {
			l.Append(i)
		}
		return env.Heap.PeakLiveBytes()
	}
	ar, sll, dll := peak(ddt.AR), peak(ddt.SLL), peak(ddt.DLL)
	if sll <= ar {
		t.Errorf("SLL footprint %d <= AR %d; per-node overhead should dominate", sll, ar)
	}
	if dll <= sll {
		t.Errorf("DLL footprint %d <= SLL %d; extra prev link should cost", dll, sll)
	}
}

// TestProbeAttribution checks that a probe sees the accesses of its own
// container only.
func TestProbeAttribution(t *testing.T) {
	heap := vheap.New()
	mem := memsim.New(memsim.DefaultConfig())
	set := profiler.NewSet()
	envA := &ddt.Env{Heap: heap, Mem: mem, Probe: set.Probe("a")}
	envB := &ddt.Env{Heap: heap, Mem: mem, Probe: set.Probe("b")}
	la := ddt.New[int](ddt.AR, envA, 8)
	lb := ddt.New[int](ddt.SLL, envB, 8)
	for i := 0; i < 100; i++ {
		la.Append(i)
	}
	for i := 0; i < 10; i++ {
		lb.Append(i)
	}
	pa, pb := set.Probe("a"), set.Probe("b")
	if pa.Ops != 100 || pb.Ops != 10 {
		t.Fatalf("probe ops = %d/%d, want 100/10", pa.Ops, pb.Ops)
	}
	if pa.Accesses() == 0 || pb.Accesses() == 0 {
		t.Fatal("probes recorded no accesses")
	}
	if got := set.Dominant(1); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Dominant(1) = %v, want [a]", got)
	}
}

func TestNewChunkedCapacity(t *testing.T) {
	// Behaviour must be identical across chunk capacities...
	ref := []int{}
	env := newEnv()
	l4 := ddt.NewChunked[int](ddt.SLLAR, env, 8, 4)
	l32 := ddt.NewChunked[int](ddt.DLLARO, newEnv(), 8, 32)
	for i := 0; i < 200; i++ {
		ref = append(ref, i)
		l4.Append(i)
		l32.Append(i)
	}
	l4.InsertAt(50, -1)
	l32.InsertAt(50, -1)
	ref = append(ref[:50], append([]int{-1}, ref[50:]...)...)
	for i, want := range ref {
		if l4.Get(i) != want || l32.Get(i) != want {
			t.Fatalf("index %d: got %d/%d want %d", i, l4.Get(i), l32.Get(i), want)
		}
	}
	// ...while traversal cost falls with larger chunks.
	hops := func(capacity int) uint64 {
		env := newEnv()
		l := ddt.NewChunked[int](ddt.SLLAR, env, 8, capacity)
		for i := 0; i < 256; i++ {
			l.Append(i)
		}
		before := env.Mem.Counts().Accesses()
		l.Get(255)
		return env.Mem.Counts().Accesses() - before
	}
	if h4, h32 := hops(4), hops(32); h32*2 > h4 {
		t.Errorf("K=32 access cost %d vs K=4 %d; want >=2x fewer", h32, h4)
	}
}

func TestNewChunkedPanics(t *testing.T) {
	if !panics(func() { ddt.NewChunked[int](ddt.AR, newEnv(), 8, 8) }) {
		t.Error("non-chunked kind accepted")
	}
	if !panics(func() { ddt.NewChunked[int](ddt.SLLAR, newEnv(), 8, 1) }) {
		t.Error("chunkCap 1 accepted")
	}
	if !panics(func() { ddt.NewChunked[int](ddt.SLLAR, newEnv(), 0, 8) }) {
		t.Error("zero record size accepted")
	}
}
