package lenient

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestLazyComputesOnce(t *testing.T) {
	var calls atomic.Int32
	c := Lazy(func() int {
		calls.Add(1)
		return 41
	})
	if calls.Load() != 0 {
		t.Error("Lazy evaluated eagerly")
	}
	if got := c.Force(); got != 41 {
		t.Errorf("Force = %d", got)
	}
	if got := c.Force(); got != 41 {
		t.Errorf("second Force = %d", got)
	}
	if calls.Load() != 1 {
		t.Errorf("thunk ran %d times, want 1", calls.Load())
	}
}

func TestLazyNilThunkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Lazy(nil) did not panic")
		}
	}()
	Lazy[int](nil)
}

// selfThunk is an object that is its own future: it carries the inputs,
// implements Thunk and embeds the cell.
type selfThunk struct {
	cell  Cell[int]
	in    int
	calls int
}

func (s *selfThunk) Eval(v *int) {
	s.calls++
	*v = s.in * 2
}

func TestSuspendInPlace(t *testing.T) {
	s := &selfThunk{in: 21}
	c := s.cell.Suspend(s)
	if c != &s.cell {
		t.Fatal("Suspend returned a different cell")
	}
	if _, ok := c.Poll(); ok || s.calls != 0 {
		t.Error("Suspend evaluated eagerly")
	}
	if got := c.Force(); got != 42 {
		t.Errorf("Force = %d, want 42", got)
	}
	if got, ok := c.Poll(); !ok || got != 42 || c.Force() != 42 || s.calls != 1 {
		t.Errorf("after Force: Poll = %d, %v; %d evaluations", got, ok, s.calls)
	}
	defer func() {
		if recover() == nil {
			t.Error("Suspend(nil) did not panic")
		}
	}()
	new(Cell[int]).Suspend(nil)
}

// gate is a thunk that only releases a held value, doubled.
type gate struct{ released chan int }

func (g gate) Eval(v *int) {
	*v *= 2
	g.released <- *v
}

// TestHoldReleasesItsValue: a held cell stores its value itself and hands
// it to its thunk on first demand — not before: Poll sees nothing until
// then — and Force returns what the thunk left there.
func TestHoldReleasesItsValue(t *testing.T) {
	g := gate{released: make(chan int, 1)}
	c := new(Cell[int]).Hold(21, g)
	if v, ok := c.Poll(); ok {
		t.Fatalf("a held cell polled %d before its first demand", v)
	}
	if got := c.Force(); got != 42 || <-g.released != 42 {
		t.Errorf("Force = %d, want the held 21 released doubled", got)
	}
	if got, ok := c.Poll(); !ok || got != 42 || c.Force() != 42 || len(g.released) != 0 {
		t.Errorf("after Force: Poll = %d, %v, or the thunk ran twice", got, ok)
	}
}

// TestThunkNoAlloc: a lazy cell costs the cell. A func() T becomes the
// cell's Thunk without boxing, and a cell suspended in place inside its
// thunk's own object costs nothing beyond that object.
func TestThunkNoAlloc(t *testing.T) {
	fn := func() int { return 1 }
	if allocs := testing.AllocsPerRun(100, func() { Lazy(fn).Force() }); allocs > 1 {
		t.Errorf("Lazy + Force = %.1f allocs, want the cell alone", allocs)
	}
	objs := make([]selfThunk, 101)
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		s := &objs[i]
		i++
		s.cell.Suspend(s).Force()
	}); allocs != 0 {
		t.Errorf("Suspend + Force = %.1f allocs, want 0", allocs)
	}
}

func TestReady(t *testing.T) {
	c := Ready("x")
	if got := c.Force(); got != "x" {
		t.Errorf("Force = %q", got)
	}
}

func TestSpawnComputesInBackground(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	c := Spawn(func() int {
		close(started)
		<-release
		return 7
	})
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("Spawn did not start its thunk")
	}
	close(release)
	if got := c.Force(); got != 7 {
		t.Errorf("Force = %d", got)
	}
}

func TestForceIsConcurrencySafe(t *testing.T) {
	var calls atomic.Int32
	c := Lazy(func() int {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return 1
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.Force(); got != 1 {
				t.Errorf("Force = %d", got)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("thunk ran %d times under contention", calls.Load())
	}
}

func TestCellMapAndJoin(t *testing.T) {
	base := Ready(10)
	doubled := Map(base, func(v int) int { return v * 2 })
	if got := doubled.Force(); got != 20 {
		t.Errorf("Map Force = %d", got)
	}
	nested := Ready(Ready(5))
	if got := Join(nested).Force(); got != 5 {
		t.Errorf("Join Force = %d", got)
	}
}

func TestPairComponentsIndependent(t *testing.T) {
	// Demanding Second must not force First: the essence of leniency.
	var firstForced atomic.Bool
	p := NewPair(
		Lazy(func() int { firstForced.Store(true); return 1 }),
		Ready("ok"),
	)
	if got := p.Second(); got != "ok" {
		t.Errorf("Second = %q", got)
	}
	if firstForced.Load() {
		t.Error("demanding Second forced First")
	}
	if got := p.First(); got != 1 {
		t.Errorf("First = %d", got)
	}
	if p.FirstCell() == nil || p.SecondCell() == nil {
		t.Error("component cells not exposed")
	}
}

func TestEmptyStream(t *testing.T) {
	var s *Stream[int]
	if !s.IsEmpty() {
		t.Error("nil stream not empty")
	}
	if got := ToSlice(s); len(got) != 0 {
		t.Errorf("ToSlice(empty) = %v", got)
	}
	if got := Length(s); got != 0 {
		t.Errorf("Length(empty) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("First of empty stream did not panic")
		}
	}()
	s.First()
}

func TestRestOfEmptyPanics(t *testing.T) {
	var s *Stream[int]
	defer func() {
		if recover() == nil {
			t.Error("Rest of empty stream did not panic")
		}
	}()
	s.Rest()
}

func TestFromSliceToSliceRoundTrip(t *testing.T) {
	tests := [][]int{nil, {}, {1}, {1, 2, 3}, {5, 4, 3, 2, 1}}
	for _, in := range tests {
		out := ToSlice(FromSlice(in))
		if len(out) != len(in) {
			t.Errorf("round trip %v -> %v", in, out)
			continue
		}
		for i := range in {
			if out[i] != in[i] {
				t.Errorf("round trip %v -> %v", in, out)
				break
			}
		}
	}
}

func TestFollowedByIsLazyInTail(t *testing.T) {
	var tailBuilt atomic.Bool
	s := FollowedBy(1, func() *Stream[int] {
		tailBuilt.Store(true)
		return Cons(2, nil)
	})
	if got := s.First(); got != 1 {
		t.Errorf("First = %d", got)
	}
	if tailBuilt.Load() {
		t.Error("tail was demanded by First")
	}
	if got := s.Rest().First(); got != 2 {
		t.Errorf("Rest().First() = %d", got)
	}
	if !tailBuilt.Load() {
		t.Error("tail thunk never ran")
	}
}

func TestGenerateBounded(t *testing.T) {
	s := Generate(func(i int) (int, bool) { return i * i, i < 5 })
	got := ToSlice(s)
	want := []int{0, 1, 4, 9, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
			break
		}
	}
}

func TestGenerateInfiniteWithTake(t *testing.T) {
	nat := Generate(func(i int) (int, bool) { return i, true })
	got := ToSlice(Take(nat, 4))
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Take(nat,4) = %v", got)
		}
	}
	if got := TakeSlice(nat, 3); len(got) != 3 {
		t.Errorf("TakeSlice = %v", got)
	}
}

func TestGenerateCallsProducerOnDemandOnly(t *testing.T) {
	var calls atomic.Int32
	s := Generate(func(i int) (int, bool) {
		calls.Add(1)
		return i, true
	})
	_ = s.First()
	if calls.Load() != 1 {
		t.Errorf("producer called %d times after one demand, want 1", calls.Load())
	}
	_ = s.Rest().First()
	if calls.Load() != 2 {
		t.Errorf("producer called %d times after two demands, want 2", calls.Load())
	}
}

func TestTakeDoesNotOverDemand(t *testing.T) {
	// Taking n elements must invoke the producer exactly n times — one
	// extra demand would run transaction n+1 in the apply-stream equations.
	var calls atomic.Int32
	s := Generate(func(i int) (int, bool) {
		calls.Add(1)
		return i, true
	})
	// Generate's construction produces element 0 (strict head).
	if got := TakeSlice(s, 3); len(got) != 3 {
		t.Fatalf("TakeSlice = %v", got)
	}
	if calls.Load() != 3 {
		t.Errorf("TakeSlice(3) invoked producer %d times", calls.Load())
	}
	calls.Store(0)
	s2 := Generate(func(i int) (int, bool) {
		calls.Add(1)
		return i, true
	})
	if got := ToSlice(Take(s2, 4)); len(got) != 4 {
		t.Fatalf("Take = %v", got)
	}
	if calls.Load() != 4 {
		t.Errorf("ToSlice(Take(4)) invoked producer %d times", calls.Load())
	}
}

func TestFromChan(t *testing.T) {
	ch := make(chan int, 3)
	ch <- 1
	ch <- 2
	ch <- 3
	close(ch)
	got := ToSlice(FromChan(ch))
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("FromChan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FromChan = %v", got)
		}
	}
}

func TestApplyToAll(t *testing.T) {
	s := FromSlice([]int{1, 2, 3})
	got := ToSlice(ApplyToAll(func(v int) int { return v * 10 }, s))
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ApplyToAll = %v", got)
		}
	}
	if ApplyToAll(func(v int) int { return v }, nil) != nil {
		t.Error("ApplyToAll(empty) not empty")
	}
}

func TestApplyToAllSpawnFloods(t *testing.T) {
	// All three applications should be able to run concurrently: block each
	// until all have started.
	var started sync.WaitGroup
	started.Add(3)
	release := make(chan struct{})
	s := FromSlice([]int{1, 2, 3})
	mapped := ApplyToAllSpawn(func(v int) int {
		started.Done()
		<-release
		return v + 100
	}, s)
	// Demand the whole spine (not the heads) to spawn all futures.
	cells := ToSlice(mapped)
	done := make(chan struct{})
	go func() { started.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("spawned applications did not run concurrently")
	}
	close(release)
	want := []int{101, 102, 103}
	for i, c := range cells {
		if got := c.Force(); got != want[i] {
			t.Errorf("cell %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestFilter(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5, 6})
	even := ToSlice(Filter(func(v int) bool { return v%2 == 0 }, s))
	want := []int{2, 4, 6}
	if len(even) != len(want) {
		t.Fatalf("Filter = %v", even)
	}
	for i := range want {
		if even[i] != want[i] {
			t.Errorf("Filter = %v", even)
		}
	}
	if got := ToSlice(Filter(func(int) bool { return false }, s)); len(got) != 0 {
		t.Errorf("Filter(none) = %v", got)
	}
	if Filter(func(int) bool { return true }, (*Stream[int])(nil)) != nil {
		t.Error("Filter(empty) not empty")
	}
}

func TestTakeDropAppend(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5})
	if got := ToSlice(Take(s, 0)); len(got) != 0 {
		t.Errorf("Take 0 = %v", got)
	}
	if got := ToSlice(Take(s, 99)); len(got) != 5 {
		t.Errorf("Take 99 = %v", got)
	}
	if got := ToSlice(Drop(s, 2)); len(got) != 3 || got[0] != 3 {
		t.Errorf("Drop 2 = %v", got)
	}
	if got := Drop(s, 99); got != nil {
		t.Errorf("Drop 99 = %v", ToSlice(got))
	}
	got := ToSlice(Append(FromSlice([]int{1, 2}), FromSlice([]int{3})))
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Append = %v", got)
		}
	}
	if got := ToSlice(Append(nil, FromSlice([]int{9}))); len(got) != 1 || got[0] != 9 {
		t.Errorf("Append(empty, s) = %v", got)
	}
}

func TestAppendLazy(t *testing.T) {
	var built atomic.Bool
	a := FromSlice([]int{1, 2})
	out := AppendLazy(a, func() *Stream[int] {
		built.Store(true)
		return FromSlice([]int{3})
	})
	if got := out.First(); got != 1 {
		t.Errorf("First = %d", got)
	}
	if got := out.Rest().First(); got != 2 {
		t.Errorf("second = %d", got)
	}
	if built.Load() {
		t.Error("second stream built before first exhausted")
	}
	if got := ToSlice(out); len(got) != 3 || got[2] != 3 {
		t.Errorf("ToSlice = %v", got)
	}
	if !built.Load() {
		t.Error("second stream never built")
	}
	// Empty first stream: the thunk runs immediately.
	if got := ToSlice(AppendLazy(nil, func() *Stream[int] { return FromSlice([]int{9}) })); len(got) != 1 {
		t.Errorf("AppendLazy(empty) = %v", got)
	}
}

func TestZipWith(t *testing.T) {
	a := FromSlice([]int{1, 2, 3})
	b := FromSlice([]int{10, 20})
	got := ToSlice(ZipWith(func(x, y int) int { return x + y }, a, b))
	want := []int{11, 22}
	if len(got) != len(want) {
		t.Fatalf("ZipWith = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ZipWith = %v", got)
		}
	}
}

func TestForEachAndFold(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4})
	sum := 0
	ForEach(s, func(v int) { sum += v })
	if sum != 10 {
		t.Errorf("ForEach sum = %d", sum)
	}
	if got := Fold(s, 100, func(acc, v int) int { return acc + v }); got != 110 {
		t.Errorf("Fold = %d", got)
	}
}

func TestPipelineProducerConsumerOverlap(t *testing.T) {
	// A consumer demanding a stream built over a channel observes elements
	// as the producer emits them: streams are "bona fide data objects" of
	// unknown length.
	ch := make(chan int)
	go func() {
		for i := 0; i < 3; i++ {
			ch <- i
		}
		close(ch)
	}()
	s := FromChan(ch)
	if got := s.First(); got != 0 {
		t.Errorf("First = %d", got)
	}
	if got := s.Rest().First(); got != 1 {
		t.Errorf("second = %d", got)
	}
	rest := ToSlice(s.Rest().Rest())
	if len(rest) != 1 || rest[0] != 2 {
		t.Errorf("rest = %v", rest)
	}
}

// Property tests on stream laws.

func TestPropertyMapFusion(t *testing.T) {
	// map f . map g == map (f . g)
	f := func(xs []int8) bool {
		ints := make([]int, len(xs))
		for i, v := range xs {
			ints[i] = int(v)
		}
		s := FromSlice(ints)
		double := func(v int) int { return v * 2 }
		inc := func(v int) int { return v + 1 }
		lhs := ToSlice(ApplyToAll(inc, ApplyToAll(double, s)))
		rhs := ToSlice(ApplyToAll(func(v int) int { return inc(double(v)) }, s))
		if len(lhs) != len(rhs) {
			return false
		}
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTakeDropSplit(t *testing.T) {
	// take n s ++ drop n s == s
	f := func(xs []int8, n uint8) bool {
		ints := make([]int, len(xs))
		for i, v := range xs {
			ints[i] = int(v)
		}
		k := int(n) % (len(ints) + 1)
		s := FromSlice(ints)
		recombined := ToSlice(Append(Take(s, k), Drop(s, k)))
		if len(recombined) != len(ints) {
			return false
		}
		for i := range ints {
			if recombined[i] != ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFilterIdempotent(t *testing.T) {
	f := func(xs []int8) bool {
		ints := make([]int, len(xs))
		for i, v := range xs {
			ints[i] = int(v)
		}
		even := func(v int) bool { return v%2 == 0 }
		once := ToSlice(Filter(even, FromSlice(ints)))
		twice := ToSlice(Filter(even, Filter(even, FromSlice(ints))))
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLengthInvariants(t *testing.T) {
	f := func(xs []int8, ys []int8) bool {
		a := make([]int, len(xs))
		b := make([]int, len(ys))
		s := FromSlice(a)
		u := FromSlice(b)
		return Length(Append(s, u)) == len(a)+len(b) &&
			Length(ApplyToAll(func(v int) int { return v }, s)) == len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
