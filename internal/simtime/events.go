package simtime

// Event is one pending completion in simulated time: a client (or any
// actor, keyed by ID) finishing its in-flight work at Time.
type Event struct {
	// Time is the simulated completion instant, in seconds.
	Time float64
	// ID keys the actor; ties on Time pop in ascending ID order, so the
	// queue is deterministic for identical push sequences.
	ID int
}

// before orders events by (Time, ID).
func (e Event) before(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.ID < o.ID
}

// EventQueue is a deterministic min-queue over simulated time, the engine
// behind in-flight client updates in the simulator loop: dispatches push
// completion events, the server loop pops the earliest. Earlier Time pops
// first; equal Times pop in ascending ID order. It is a binary heap sifted
// over the typed slice — container/heap would box every Event it is handed,
// two allocations per update on a loop the synchronous round runs too. The
// zero value is an empty queue.
type EventQueue struct {
	h []Event
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Push adds one pending completion.
func (q *EventQueue) Push(e Event) {
	q.h = append(q.h, e)
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Pop removes and returns the earliest pending completion; ok is false on
// an empty queue.
func (q *EventQueue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q.h[c].before(q.h[least]) {
				least = c
			}
		}
		if least == i {
			return top, true
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
