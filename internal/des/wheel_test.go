package des

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refEvent / refHeap reimplement the seed engine's queue — the hand-rolled
// 4-ary min-heap on (at, seq) with eager removal — as the ordering oracle
// for the timing wheel. The differential test below drives both structures
// with the same schedule/cancel stream and demands bit-identical firing
// sequences.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	index int
}

type refHeap struct {
	heap []*refEvent
	seq  uint64
}

func (h *refHeap) less(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refHeap) push(at Time, id int) *refEvent {
	ev := &refEvent{at: at, seq: h.seq, id: id}
	h.seq++
	ev.index = len(h.heap)
	h.heap = append(h.heap, ev)
	h.siftUp(ev.index)
	return ev
}

func (h *refHeap) pop() *refEvent {
	ev := h.heap[0]
	h.remove(0)
	return ev
}

func (h *refHeap) remove(i int) {
	n := len(h.heap) - 1
	removed := h.heap[i]
	if i != n {
		h.heap[i] = h.heap[n]
		h.heap[i].index = i
	}
	h.heap[n] = nil
	h.heap = h.heap[:n]
	if i < n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	removed.index = -1
}

func (h *refHeap) siftUp(i int) {
	ev := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(ev, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.heap[i].index = i
		i = parent
	}
	h.heap[i] = ev
	ev.index = i
}

func (h *refHeap) siftDown(i int) bool {
	ev := h.heap[i]
	start := i
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(h.heap[c], h.heap[min]) {
				min = c
			}
		}
		if !h.less(h.heap[min], ev) {
			break
		}
		h.heap[i] = h.heap[min]
		h.heap[i].index = i
		i = min
	}
	h.heap[i] = ev
	ev.index = i
	return i > start
}

// TestDifferentialWheelVsSeedHeap drives the timing wheel and the seed's
// 4-ary heap with an identical randomized schedule/cancel stream —
// including same-timestamp bursts, sub-tick offsets, mid-run re-scheduling
// from callbacks, and far-future (overflow-heap) events — and asserts the
// two fire the surviving events in exactly the same order.
func TestDifferentialWheelVsSeedHeap(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := xrand.New(0xD1F + uint64(trial))
		eng := New()
		ref := &refHeap{}

		type pending struct {
			h  Event
			rv *refEvent
		}
		var gotOrder []int
		n := 64 + rng.Intn(512)
		id := 0
		handles := make([]pending, 0, n)
		schedule := func(at Time) {
			i := id
			id++
			h := eng.Schedule(at, func() {
				gotOrder = append(gotOrder, i)
				// Occasionally reschedule follow-up work from inside the
				// callback, mirroring serve loops. Mirror into the oracle.
				if i%7 == 3 {
					j := id
					id++
					d := Duration(1 + rng.Intn(5_000_000)) // up to 5 ms
					eng.ScheduleIn(d, func() { gotOrder = append(gotOrder, j) })
					ref.push(eng.Now()+d, j)
				}
			})
			handles = append(handles, pending{h: h, rv: ref.push(at, i)})
		}
		for k := 0; k < n; k++ {
			var at Time
			switch rng.Intn(10) {
			case 0: // same-instant burst
				at = Time(rng.Intn(4)) * 1_000_000
			case 1: // sub-tick spread (inside one 8192 ns bucket)
				at = 5_000_000 + Time(rng.Intn(1024))
			case 2: // far future: exercises coarse levels
				at = Time(rng.Intn(1_000_000_000_000)) // up to 1000 s
			case 3: // beyond the wheel horizon: overflow heap
				at = Time(5_000_000_000_000) + Time(rng.Intn(1_000_000_000))
			default: // typical packet-scale times
				at = Time(rng.Intn(100_000_000))
			}
			schedule(at)
		}
		// Cancel a random subset through both structures.
		for _, p := range handles {
			if rng.Bool(0.25) {
				eng.Cancel(p.h)
				if p.rv.index >= 0 {
					ref.remove(p.rv.index)
				}
			}
		}
		eng.Run()
		var wantOrder []int
		for len(ref.heap) > 0 {
			wantOrder = append(wantOrder, ref.pop().id)
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: wheel fired %d events, seed heap %d",
				trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: firing order diverges at %d: wheel %d, heap %d",
					trial, i, gotOrder[i], wantOrder[i])
			}
		}
	}
}

// Events beyond the wheel horizon park in the overflow heap and must still
// fire in order once the cursor approaches.
func TestOverflowHorizonOrdering(t *testing.T) {
	eng := New()
	var order []int
	far := Time(horizonTicks<<tickShift) * 3
	eng.Schedule(far+5, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(far, func() { order = append(order, 2) })
	eng.Schedule(far+5, func() { order = append(order, 4) }) // tie: FIFO by seq
	eng.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Now() != far+5 {
		t.Fatalf("Now() = %v", eng.Now())
	}
}

func TestCancelOverflowEvent(t *testing.T) {
	eng := New()
	far := Time(horizonTicks<<tickShift) * 2
	fired := false
	ev := eng.Schedule(far, func() { fired = true })
	eng.Schedule(5, func() {})
	eng.Cancel(ev)
	eng.Run()
	if fired {
		t.Fatal("canceled overflow event fired")
	}
}

// After RunUntil the cursor may have jumped ahead of the clock (to the
// next pending event's bucket). Scheduling behind the cursor must still
// fire in correct order — the regression this guards is the ready-run
// merge insert.
func TestScheduleBehindCursorAfterRunUntil(t *testing.T) {
	eng := New()
	var order []int
	eng.Schedule(100*Second, func() { order = append(order, 3) })
	eng.RunUntil(Second) // cursor jumps toward the 100 s event
	eng.Schedule(2*Second, func() { order = append(order, 1) })
	eng.Schedule(3*Second, func() { order = append(order, 2) })
	eng.Run()
	want := []int{1, 2, 3}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Steady-state rescheduling must be allocation-free: the event records
// recycle through the pool and the pool stops growing.
func TestSteadyStatePoolStopsGrowing(t *testing.T) {
	eng := New()
	for i := 0; i < 64; i++ {
		period := Duration(1000 + i*37)
		var tick func()
		tick = func() { eng.ScheduleIn(period, tick) }
		eng.ScheduleIn(period, tick)
	}
	for i := 0; i < 1024; i++ {
		eng.Step()
	}
	high := eng.PoolSize()
	for i := 0; i < 8192; i++ {
		eng.Step()
	}
	if eng.PoolSize() != high {
		t.Fatalf("pool grew in steady state: %d -> %d", high, eng.PoolSize())
	}
}

func TestSameTickSubOrder(t *testing.T) {
	// Events inside one 8192 ns bucket must fire by exact nanosecond, then
	// seq.
	eng := New()
	var order []Time
	base := Time(1 << 20)
	for _, off := range []Time{900, 100, 500, 100, 0} {
		at := base + off
		eng.Schedule(at, func() { order = append(order, at) })
	}
	eng.Run()
	want := []Time{base, base + 100, base + 100, base + 500, base + 900}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestDenseBucketDifferential fills one tick with thousands of events, the
// shape of a bottom-level bucket on a 10k-host run, and checks the firing
// order against an independent sort on (at, prio, schedule order). The
// tick mixes sub-tick times, explicit priorities with many ties, ~25%
// canceled records, events filed a level up that cascade down, direct
// bottom-level pushes, and callbacks that schedule more same-tick events
// into the live ready run.
func TestDenseBucketDifferential(t *testing.T) {
	const tick = Time(1) << tickShift
	// tick 2000 lies in level-1 block 7 (ticks 1792–2047): scheduled from
	// tick 1 it files in level 1, from tick 1760 directly in level 0.
	base := 2000 * tick
	for trial := 0; trial < 3; trial++ {
		rng := xrand.New(0xDE5E + uint64(trial))
		eng := New()
		type rec struct {
			at, prio Time
			order    int
			canceled bool
			h        Event
		}
		var recs []*rec
		var got []int
		spawns := 0
		var schedule func(at, prio Time)
		schedule = func(at, prio Time) {
			r := &rec{at: at, prio: prio, order: len(recs)}
			recs = append(recs, r)
			r.h = eng.SchedulePrio(at, prio, func() {
				got = append(got, r.order)
				if r.order%8 == 5 && spawns < 300 {
					// Same-tick follow-up into the live run, stamped now.
					spawns++
					now := eng.Now()
					end := (now>>tickShift + 1) << tickShift
					schedule(now+Time(rng.Intn(int(end-now))), now)
				}
			})
		}
		burst := func(n int) {
			now := eng.Now()
			prios := []Time{0, now / 2, now}
			for i := 0; i < n; i++ {
				schedule(base+Time(rng.Intn(16))*512, prios[rng.Intn(len(prios))])
			}
		}
		eng.Schedule(tick, func() { burst(1200) })
		eng.Schedule(1760*tick, func() {
			burst(1200)
			for _, r := range recs {
				if rng.Bool(0.25) {
					eng.Cancel(r.h)
					r.canceled = true
				}
			}
		})
		eng.Run()

		var want []*rec
		for _, r := range recs {
			if !r.canceled {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.order < b.order
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].order {
				t.Fatalf("trial %d: firing order diverges at %d: got event %d, want %d",
					trial, i, got[i], want[i].order)
			}
		}
		if len(recs) < 2000 || spawns == 0 {
			t.Fatalf("trial %d: %d events in the dense tick, %d spawned", trial, len(recs), spawns)
		}
		for lvl := range eng.levels {
			if c := eng.levels[lvl].count; c != 0 {
				t.Fatalf("trial %d: level %d count %d after drain", trial, lvl, c)
			}
		}
	}
}

// A warm engine draining dense buckets allocates nothing: event records
// come from the pool, and the ready run and the sort's merge scratch keep
// their capacity between buckets.
func TestDenseBucketDrainAllocs(t *testing.T) {
	eng := New()
	rng := xrand.New(11)
	offs := make([]Time, 2048)
	for i := range offs {
		offs[i] = Time(rng.Intn(1 << tickShift))
	}
	fn := func() {}
	drain := func() {
		base := Time(tickOf(eng.Now())+10) << tickShift
		for _, off := range offs {
			eng.Schedule(base+off, fn)
		}
		eng.Run()
	}
	drain()
	if a := testing.AllocsPerRun(20, drain); a != 0 {
		t.Fatalf("draining a warm dense bucket allocated %.1f times per run", a)
	}
	for _, ev := range eng.sortBuf {
		if ev != nil {
			t.Fatal("sort scratch still holds an event after the drain")
		}
	}
}

// BenchmarkDenseBucket schedules n events at random times inside a single
// tick and drains them: the promote-and-sort cost of a dense bottom-level
// bucket. ns/event should stay roughly flat as n grows.
func BenchmarkDenseBucket(b *testing.B) {
	for _, n := range []int{256, 2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := New()
			rng := xrand.New(3)
			offs := make([]Time, n)
			for i := range offs {
				offs[i] = Time(rng.Intn(1 << tickShift))
			}
			fn := func() {}
			drain := func() {
				base := Time(tickOf(eng.Now())+10) << tickShift
				for _, off := range offs {
					eng.Schedule(base+off, fn)
				}
				eng.Run()
			}
			drain() // warm the pool and the sort scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
