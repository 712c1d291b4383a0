package des

import (
	"encoding/binary"
	"testing"
)

// FuzzWheelCursorBehind fuzzes the wheel's trickiest path: merge-inserting
// into the sorted ready run when the cursor has jumped ahead of the clock
// (after RunUntil toward a far event) and new events land at or behind
// curTick. The oracle is the engine's documented contract: every event
// that fires is the (at, prio, schedule order) minimum of the events
// pending at that moment, canceled events never fire, and nothing is lost.
//
// Each input byte stream decodes to a little op program:
//
//	op 0: Schedule at now + small delta   (bottom wheel levels / ready run)
//	op 1: Schedule at now + scaled delta  (coarse levels, overflow heap)
//	op 2: RunUntil(now + delta)           (jumps the cursor; behind-cursor
//	                                       schedules follow)
//	op 3: Cancel a previously scheduled event
//	op 4: SchedulePrio at now + small delta with a prio at or before now
func FuzzWheelCursorBehind(f *testing.F) {
	le := binary.LittleEndian
	mk := func(ops ...uint64) []byte {
		out := make([]byte, 0, len(ops)*3)
		for _, op := range ops {
			var b [3]byte
			b[0] = byte(op)
			le.PutUint16(b[1:], uint16(op>>8))
			out = append(out, b[:]...)
		}
		return out
	}
	// Seeds: same-tick bursts, a RunUntil jump followed by behind-cursor
	// schedules, coarse-level and overflow-horizon distances, cancels.
	f.Add(mk(0x0000_00, 0x0000_00, 0x0100_02, 0x0003_00, 0x0002_00))
	f.Add(mk(0xffff_01, 0x0010_02, 0x0001_00, 0x0001_00, 0x0000_03))
	f.Add(mk(0xffff_01, 0xffff_01, 0xffff_02, 0x0000_00, 0x0002_00, 0x0004_03))
	f.Add(mk(0x8000_02, 0x0001_00, 0x0003_00, 0x0001_03, 0x4000_02))
	f.Add(mk(0x0040_02, 0x0305_04, 0x0000_00, 0x0105_04, 0x0005_04, 0x0010_02, 0x0200_04))
	// A single-tick burst of several hundred events after a cursor jump:
	// sub-tick times, mixed prios, a few cancels.
	burst := []uint64{0x0100_02}
	for k := uint64(0); k < 450; k++ {
		switch k % 9 {
		case 4:
			burst = append(burst, (k*7919)<<8|3)
		case 1, 6:
			burst = append(burst, ((k%5)<<8|k*37%256)<<8|4)
		default:
			burst = append(burst, (k*131%8192)<<8)
		}
	}
	f.Add(mk(burst...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			return // bound the program length
		}
		eng := New()
		type rec struct {
			at, prio    Time
			order       int // schedule order, the last tie-break
			firedBefore int // events fired when this one was scheduled
			canceled    bool
			fired       bool
			h           Event
		}
		var scheduled []*rec
		var fired []*rec
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 5
			arg := Time(le.Uint16(data[i+1 : i+3]))
			switch op {
			case 0, 1, 4:
				r := &rec{order: len(scheduled), prio: eng.Now(), firedBefore: len(fired)}
				switch op {
				case 0:
					r.at = eng.Now() + arg
				case 1:
					// Scale into coarse levels and (for large args) past
					// the wheel horizon so overflow migration is exercised.
					r.at = eng.Now() + arg<<23
				case 4:
					// Low byte: a delta within a tick or two; high byte:
					// how far before now the prio stamp lies.
					r.at = eng.Now() + (arg&0xff)<<6
					r.prio = max(0, eng.Now()-(arg>>8)<<8)
				}
				r.h = eng.SchedulePrio(r.at, r.prio, func() {
					r.fired = true
					fired = append(fired, r)
				})
				scheduled = append(scheduled, r)
			case 2:
				eng.RunUntil(eng.Now() + arg<<10)
			case 3:
				if len(scheduled) > 0 {
					r := scheduled[int(arg)%len(scheduled)]
					if !r.fired && !r.canceled {
						eng.Cancel(r.h)
						r.canceled = true
					}
				}
			}
		}
		eng.Run()

		// Oracle 1: everything live fired, nothing canceled fired.
		nLive := 0
		for _, r := range scheduled {
			if r.canceled {
				if r.fired {
					t.Fatalf("canceled event (at %v, order %d) fired", r.at, r.order)
				}
				continue
			}
			nLive++
			if !r.fired {
				t.Fatalf("live event (at %v, order %d) never fired", r.at, r.order)
			}
		}
		if len(fired) != nLive {
			t.Fatalf("fired %d events, scheduled %d live", len(fired), nLive)
		}
		// Oracle 2: each fired event precedes, in (at, prio, schedule
		// order), every later-fired event that was already pending when it
		// fired. An event scheduled afterwards may sort earlier — a prio
		// stamp before the previous firing's, at the same instant.
		less := func(a, b *rec) bool {
			if a.at != b.at {
				return a.at < b.at
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.order < b.order
		}
		for i, a := range fired {
			for _, b := range fired[i+1:] {
				if b.firedBefore <= i && !less(a, b) {
					t.Fatalf("firing order violated: (at=%v prio=%v order=%d) fired before pending (at=%v prio=%v order=%d)",
						a.at, a.prio, a.order, b.at, b.prio, b.order)
				}
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("engine still pending %d after Run", eng.Pending())
		}
	})
}
