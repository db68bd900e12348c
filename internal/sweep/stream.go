package sweep

import (
	"errors"
	"fmt"
	"sync"
)

// Stream is the one store of a grid run's records, the host-side twin of the
// paper's rule that sections complete out of order but retire in the total
// section order: records land at their grid index from any goroutine, the
// first record to land at an index wins, and readers see the grid in index
// order as each prefix completes. Engine.Run, the fabric coordinator and the
// job server all deliver through it, so emit order and the per-point error
// join are defined here and nowhere else.
type Stream struct {
	mu     sync.Mutex
	recs   []Record
	done   []bool
	landed int // the completed prefix: every index below it has its record
	// wake is made by the first reader that has to wait and closed by the
	// Complete that extends the prefix: nil while nobody waits.
	wake chan struct{}
}

// NewStream returns a store for a grid of n points.
func NewStream(n int) *Stream {
	return &Stream{recs: make([]Record, n), done: make([]bool, n)}
}

// Len is the number of points in the grid.
func (s *Stream) Len() int { return len(s.recs) }

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
	if i == s.landed {
		for s.landed < len(s.done) && s.done[s.landed] {
			s.landed++
		}
		if s.wake != nil {
			close(s.wake)
			s.wake = nil
		}
	}
	return true
}

// Done reports whether a record has landed at grid index i.
func (s *Stream) Done(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[i]
}

// Prefix returns the records of the completed prefix, in grid order. Unlike
// Next it never makes a wake channel.
func (s *Stream) Prefix() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs[:s.landed]
}

// Next returns the records of the completed prefix past index from and,
// while the grid is incomplete, a channel that closes when the prefix next
// grows; concurrent readers share it. The records are written once, before
// the prefix covers them, so the returned slice is safe to read unlocked.
func (s *Stream) Next(from int) ([]Record, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	news := s.recs[min(from, s.landed):s.landed]
	if s.landed == len(s.recs) {
		return news, nil
	}
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return news, s.wake
}

// Collect blocks until every index has completed. It calls emit (when
// non-nil) from the caller's goroutine, once per record, in grid order, as
// soon as each prefix of the grid is complete, and returns the records in the
// same order. Per-point failures stay inside the records (Record.Err) and are
// joined, in grid order, into the returned error.
func (s *Stream) Collect(emit func(Record)) ([]Record, error) {
	var errs []error
	for n := 0; ; {
		news, wake := s.Next(n)
		for i := range news {
			r := &news[i]
			if emit != nil {
				emit(*r)
			}
			if r.Err != "" {
				errs = append(errs, fmt.Errorf("%s n=%d %s: %s", r.Name, r.N, r.Config(), r.Err))
			}
		}
		if wake == nil {
			return s.recs, errors.Join(errs...)
		}
		n += len(news)
		<-wake
	}
}
