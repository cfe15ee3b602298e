// Package simtime provides the virtual clock and discrete-event scheduler
// that every other simulated subsystem is built on.
//
// All simulated latencies in this repository are expressed in virtual
// nanoseconds on a Clock owned by a Scheduler. Determinism is a hard
// requirement: two runs with the same seed and configuration must produce
// identical results, so events that fire at the same instant are ordered by
// a monotonically increasing sequence number assigned at scheduling time.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so call sites can use the familiar constants
// (simtime.Millisecond, ...) without importing two time packages.
type Duration = time.Duration

// Convenience re-exports so simulation code reads naturally.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
)

// Time is an instant of virtual time, nanoseconds since simulation start.
type Time int64

// MaxTime is the largest representable instant; used as the horizon for
// RunUntil when draining a simulation.
const MaxTime = Time(math.MaxInt64)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String renders the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. The callback receives the Scheduler so it
// can reschedule itself or schedule follow-up work.
type Event struct {
	at  Time
	seq uint64
	fn  func(*Scheduler)

	// index is the event's heap slot; -1 once popped or cancelled.
	index int
}

// At returns the instant the event is scheduled for.
func (e *Event) At() Time { return e.at }

// eventQueue is a binary min-heap of events ordered by (at, seq). Since seq
// is unique, that order is total and the pop sequence is fully determined.
// Each event's index tracks its slot so Cancel can remove it in O(log n).
type eventQueue []*Event

func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push adds e to the heap.
func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.place(len(*q)-1, e)
}

// remove takes the event in slot i out of the heap; the last event fills
// the hole.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	e, last := h[i], h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		q.place(i, last)
	}
	e.index = -1
	return e
}

// place moves the hole at slot i up or down to where e belongs and puts e
// there. Events shifted past the hole keep their index current.
func (q *eventQueue) place(i int, e *Event) {
	h := *q
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}

// Scheduler owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use: the simulation is single-threaded by design so
// that results are deterministic. (A cluster runs one Scheduler per node;
// parallelism happens across schedulers, never within one.)
type Scheduler struct {
	now    Time
	seq    uint64
	queue  eventQueue
	firing bool

	// pool recycles fired and cancelled Events so steady-state scheduling
	// (periodic daemon ticks, kswapd scans) does not allocate.
	pool []*Event
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Schedule registers fn to run at instant at. Scheduling in the past is a
// programming error and panics: allowing it silently would corrupt the
// causal order of the simulation.
func (s *Scheduler) Schedule(at Time, fn func(*Scheduler)) *Event {
	if at < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	s.seq++
	var e *Event
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		e.at, e.seq, e.fn = at, s.seq, fn
	} else {
		e = &Event{at: at, seq: s.seq, fn: fn}
	}
	s.queue.push(e)
	return e
}

// release returns a no-longer-pending event to the pool for reuse by a
// future Schedule call.
func (s *Scheduler) release(e *Event) {
	e.fn = nil
	e.index = -1
	s.pool = append(s.pool, e)
}

// ScheduleAfter registers fn to run d after the current instant. Negative
// delays are clamped to zero.
func (s *Scheduler) ScheduleAfter(d Duration, fn func(*Scheduler)) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling a nil, already-fired or
// already-cancelled event is a no-op, which keeps caller bookkeeping simple.
// Fired events are recycled by later Schedule calls, so a caller must not
// retain an event past its firing and Cancel it afterwards — drop the
// pointer (or nil it out) once the callback has run, as PeriodicTask does.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.queue.remove(e.index)
	s.release(e)
}

// Pending returns the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.queue) }

// PeekNext returns the time of the earliest pending event and true, or zero
// and false when the queue is empty.
func (s *Scheduler) PeekNext() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// fireNext pops the earliest pending event, advances the clock to its
// instant, recycles the Event, and runs its callback. The Event is released
// before the callback so a self-rescheduling task (the common periodic-tick
// pattern) reuses the same hot object. Callers must have checked the queue
// is non-empty and set s.firing.
func (s *Scheduler) fireNext() {
	e := s.queue.remove(0)
	s.now = e.at
	fn := e.fn
	s.release(e)
	fn(s)
}

// enterRun guards the two run loops against re-entrancy: an event callback
// calling RunUntil/Advance/Drain would nest firing loops and corrupt the
// causal order (the inner loop would advance the clock under the outer
// one). Callbacks must schedule follow-up work instead.
func (s *Scheduler) enterRun(op string) {
	if s.firing {
		panic(fmt.Sprintf("simtime: re-entrant %s from inside an event callback", op))
	}
	s.firing = true
}

// RunUntil fires every event scheduled at or before horizon, in causal
// order, then advances the clock to horizon. It returns the number of events
// fired. Events may schedule further events; those are honoured if they fall
// within the horizon. Calling RunUntil from inside an event callback panics.
func (s *Scheduler) RunUntil(horizon Time) int {
	if horizon < s.now {
		panic(fmt.Sprintf("simtime: RunUntil horizon %v before now %v", horizon, s.now))
	}
	s.enterRun("RunUntil")
	defer func() { s.firing = false }()
	fired := 0
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		s.fireNext()
		fired++
	}
	s.now = horizon
	return fired
}

// Advance moves the clock forward by d, firing any events that fall inside
// the window. It is the primary way a synchronous actor (such as a simulated
// process thread computing a request latency) yields to background work.
func (s *Scheduler) Advance(d Duration) int {
	return s.RunUntil(s.now.Add(d))
}

// Drain runs events until the queue is empty or limit events have fired.
// It returns the number fired. A limit of 0 means no limit; the cap exists
// so a misbehaving self-rescheduling task cannot hang a test forever.
// Like RunUntil, calling Drain from inside an event callback panics.
func (s *Scheduler) Drain(limit int) int {
	s.enterRun("Drain")
	defer func() { s.firing = false }()
	fired := 0
	for len(s.queue) > 0 {
		if limit > 0 && fired >= limit {
			break
		}
		s.fireNext()
		fired++
	}
	return fired
}
