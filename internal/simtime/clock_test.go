package simtime

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestSchedulerRunsEventsInOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.Schedule(30, func(*Scheduler) { got = append(got, 3) })
	s.Schedule(10, func(*Scheduler) { got = append(got, 1) })
	s.Schedule(20, func(*Scheduler) { got = append(got, 2) })
	if fired := s.RunUntil(100); fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 100 {
		t.Fatalf("now = %v, want 100", s.Now())
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func(*Scheduler) { got = append(got, i) })
	}
	s.RunUntil(5)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerEventsCanScheduleWithinHorizon(t *testing.T) {
	s := NewScheduler()
	var hits int
	s.Schedule(10, func(s *Scheduler) {
		hits++
		s.Schedule(20, func(*Scheduler) { hits++ })
		s.Schedule(200, func(*Scheduler) { hits++ }) // beyond horizon
	})
	s.RunUntil(100)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2 (nested event within horizon must fire)", hits)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(50)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.Schedule(10, func(*Scheduler) {})
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.Schedule(10, func(*Scheduler) { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double-cancel is a no-op
	s.RunUntil(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestAdvanceMovesClockAndFires(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.ScheduleAfter(7, func(s *Scheduler) { at = s.Now() })
	s.Advance(10)
	if at != 7 {
		t.Fatalf("event fired at %v, want 7", at)
	}
	if s.Now() != 10 {
		t.Fatalf("now = %v, want 10", s.Now())
	}
}

func TestDrainLimit(t *testing.T) {
	s := NewScheduler()
	count := 0
	var reschedule func(*Scheduler)
	reschedule = func(s *Scheduler) {
		count++
		s.ScheduleAfter(1, reschedule)
	}
	s.ScheduleAfter(1, reschedule)
	if fired := s.Drain(25); fired != 25 {
		t.Fatalf("drain fired %d, want 25", fired)
	}
	if count != 25 {
		t.Fatalf("count = %d, want 25", count)
	}
}

func TestPeekNext(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.PeekNext(); ok {
		t.Fatal("PeekNext on empty queue must report false")
	}
	s.Schedule(42, func(*Scheduler) {})
	at, ok := s.PeekNext()
	if !ok || at != 42 {
		t.Fatalf("PeekNext = (%v,%v), want (42,true)", at, ok)
	}
}

// Property: for any set of event times, events fire in nondecreasing time
// order and the count matches.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fireTimes []Time
		for _, d := range delays {
			at := Time(d)
			s.Schedule(at, func(s *Scheduler) { fireTimes = append(fireTimes, s.Now()) })
		}
		s.RunUntil(MaxTime - 1)
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(100)
	if a.Add(50) != 150 {
		t.Fatal("Add broken")
	}
	if a.Sub(40) != 60 {
		t.Fatal("Sub broken")
	}
	if !a.Before(101) || a.Before(99) {
		t.Fatal("Before broken")
	}
	if !a.After(99) || a.After(101) {
		t.Fatal("After broken")
	}
}

func TestEventPoolReusesFiredEvents(t *testing.T) {
	s := NewScheduler()
	first := s.Schedule(10, func(*Scheduler) {})
	s.RunUntil(10)
	second := s.Schedule(20, func(*Scheduler) {})
	if first != second {
		t.Error("fired event was not recycled by the next Schedule")
	}
	s.RunUntil(20)
}

func TestEventPoolReusesCancelledEvents(t *testing.T) {
	s := NewScheduler()
	e := s.Schedule(10, func(*Scheduler) { t.Error("cancelled event fired") })
	s.Cancel(e)
	reused := s.Schedule(15, func(*Scheduler) {})
	if e != reused {
		t.Error("cancelled event was not recycled by the next Schedule")
	}
	if got := s.RunUntil(20); got != 1 {
		t.Fatalf("fired %d events, want 1", got)
	}
}

func TestScheduleAllocatesOncePerPoolSlot(t *testing.T) {
	s := NewScheduler()
	// Steady-state self-rescheduling must not allocate: the fired event is
	// recycled for the next tick.
	ticks := 0
	var tick func(*Scheduler)
	tick = func(sc *Scheduler) {
		ticks++
		if ticks < 100 {
			sc.ScheduleAfter(10, tick)
		}
	}
	s.ScheduleAfter(10, tick)
	allocs := testing.AllocsPerRun(1, func() {
		for ticks < 100 {
			s.Advance(10)
		}
	})
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
	if allocs > 0 {
		t.Errorf("steady-state scheduling allocated %v objects per run, want 0", allocs)
	}
}

func TestRunUntilReentrancyPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func(sc *Scheduler) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant RunUntil from a callback must panic")
			}
		}()
		sc.RunUntil(20)
	})
	s.RunUntil(15)
	// The guard must reset: a later top-level run loop still works.
	s.Schedule(30, func(*Scheduler) {})
	if got := s.RunUntil(40); got != 1 {
		t.Fatalf("post-panic RunUntil fired %d events, want 1", got)
	}
}

func TestDrainReentrancyPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func(sc *Scheduler) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Drain from a callback must panic")
			}
		}()
		sc.Drain(0)
	})
	if got := s.Drain(0); got != 1 {
		t.Fatalf("Drain fired %d events, want 1", got)
	}
}

func TestDrainMatchesRunUntilOrdering(t *testing.T) {
	run := func(drain bool) []int {
		s := NewScheduler()
		var order []int
		for i, at := range []Time{30, 10, 20, 10} {
			i := i
			s.Schedule(at, func(*Scheduler) { order = append(order, i) })
		}
		if drain {
			s.Drain(0)
		} else {
			s.RunUntil(30)
		}
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RunUntil order %v != Drain order %v", a, b)
		}
	}
}

// TestEventQueueMatchesSortedOracle drives the scheduler through seeded
// random interleavings of Schedule, Cancel (of any pending event, also from
// inside callbacks), RunUntil and Drain, and checks every step against a
// sorted slice of the pending events: each firing must be the oracle's
// least (at, seq) entry, and Pending/PeekNext must agree with it.
func TestEventQueueMatchesSortedOracle(t *testing.T) {
	type entry struct {
		at      Time
		seq, id int
	}
	for seed := range uint64(40) {
		rng := rand.New(rand.NewPCG(seed, 3))
		s := NewScheduler()
		var oracle []entry // pending events, sorted by (at, seq)
		events := map[int]*Event{}
		seq := 0
		check := func(where string) {
			t.Helper()
			if s.Pending() != len(oracle) {
				t.Fatalf("seed %d %s: Pending %d, oracle %d", seed, where, s.Pending(), len(oracle))
			}
			at, ok := s.PeekNext()
			if ok != (len(oracle) > 0) || ok && at != oracle[0].at {
				t.Fatalf("seed %d %s: PeekNext (%v, %v), oracle %v", seed, where, at, ok, oracle)
			}
		}
		cancelRandom := func() {
			if len(oracle) == 0 {
				return
			}
			i := rng.IntN(len(oracle))
			id := oracle[i].id
			s.Cancel(events[id])
			delete(events, id)
			oracle = slices.Delete(oracle, i, i+1)
		}
		var schedule func(at Time)
		schedule = func(at Time) {
			seq++
			id := seq
			events[id] = s.Schedule(at, func(s *Scheduler) {
				if len(oracle) == 0 || oracle[0].id != id || s.Now() != oracle[0].at {
					t.Fatalf("seed %d: fired event %d at %v, oracle head %v", seed, id, s.Now(), oracle)
				}
				oracle = oracle[1:]
				delete(events, id)
				check("in callback")
				switch rng.IntN(5) {
				case 0:
					schedule(s.Now() + Time(rng.IntN(8)))
				case 1:
					cancelRandom()
				}
			})
			e := entry{at, seq, id}
			i, _ := slices.BinarySearchFunc(oracle, e, func(a, b entry) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
			})
			oracle = slices.Insert(oracle, i, e)
		}
		for step := range 300 {
			switch op := rng.IntN(10); {
			case op < 5:
				schedule(s.Now() + Time(rng.IntN(20)))
			case op < 7:
				cancelRandom()
			case op < 9:
				horizon := s.Now() + Time(rng.IntN(15))
				s.RunUntil(horizon)
				if len(oracle) > 0 && oracle[0].at <= horizon {
					t.Fatalf("seed %d step %d: RunUntil(%v) left %v pending", seed, step, horizon, oracle[0])
				}
			default:
				limit := rng.IntN(4) // 0: no limit
				fired := s.Drain(limit)
				if limit > 0 && fired > limit || len(oracle) > 0 && (limit == 0 || fired < limit) {
					t.Fatalf("seed %d step %d: Drain(%d) fired %d, %d still pending", seed, step, limit, fired, len(oracle))
				}
			}
			check("after step")
		}
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	s := NewScheduler()
	fn := func(*Scheduler) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(10, fn)
		s.Advance(10)
	}
}
