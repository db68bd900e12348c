package sweep

import (
	"errors"
	"fmt"
	"sync"
)

// Stream is the ordered collector of one grid run, the host-side twin of the
// paper's rule that sections complete out of order but retire in the total
// section order: records land at their grid index from any goroutine, the
// first record to land at an index wins, and Collect hands the grid out in
// index order as each prefix completes. Engine.Run and the fabric
// coordinator both deliver through it, so emit order and the per-point error
// join are defined here and nowhere else.
type Stream struct {
	mu     sync.Mutex
	landed sync.Cond // signalled on every first Complete of an index
	recs   []Record
	done   []bool
}

// NewStream returns a collector for a grid of n points.
func NewStream(n int) *Stream {
	s := &Stream{recs: make([]Record, n), done: make([]bool, n)}
	s.landed.L = &s.mu
	return s
}

// Complete lands rec at grid index i. It reports whether this call was the
// first for i; a later call leaves the first record in place and returns
// false, which is what makes duplicated and late deliveries harmless. Safe
// for concurrent use.
func (s *Stream) Complete(i int, rec Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[i] {
		return false
	}
	s.recs[i], s.done[i] = rec, true
	s.landed.Broadcast()
	return true
}

// Done reports whether a record has landed at grid index i.
func (s *Stream) Done(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[i]
}

// Collect blocks until every index has completed. It calls emit (when
// non-nil) from the caller's goroutine, once per record, in grid order, as
// soon as each prefix of the grid is complete, and returns the records in the
// same order. Per-point failures stay inside the records (Record.Err) and are
// joined, in grid order, into the returned error.
func (s *Stream) Collect(emit func(Record)) ([]Record, error) {
	var errs []error
	for i := range s.recs {
		s.mu.Lock()
		for !s.done[i] {
			s.landed.Wait()
		}
		s.mu.Unlock()
		// recs[i] was written once, before done[i]; nothing writes it again.
		r := &s.recs[i]
		if emit != nil {
			emit(*r)
		}
		if r.Err != "" {
			errs = append(errs, fmt.Errorf("%s n=%d %s: %s", r.Name, r.N, r.Config(), r.Err))
		}
	}
	return s.recs, errors.Join(errs...)
}
