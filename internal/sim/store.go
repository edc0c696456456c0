package sim

// Store is a bounded FIFO queue of items of type T with blocking Put and
// Get, analogous to a POSIX message queue or a buffered channel living in
// virtual time. Capacity 0 means unbounded.
//
// The buffered items live in a head-indexed slice that is reset (not
// re-sliced) when it drains, so a steady-state put/get ping-pong — the
// daemon's warm ring cycle — reuses one backing array and allocates
// nothing. Blocked getters carry the delivered value in the waiter
// itself instead of through Event.Fire's interface payload, keeping the
// wakeup path free of boxing.
type Store[T any] struct {
	env     *Env
	cap     int
	items   []T
	head    int
	getters []*storeGetter[T]
	gethead int
	putters []*storePutter[T]
	puthead int
	// free is a small freelist of getter waiters: the same process
	// blocking on Get over and over (a stream's pump between bursts)
	// recycles one waiter instead of allocating each time.
	free []*storeGetter[T]
}

type storeGetter[T any] struct {
	v  T
	ev *Event
}

type storePutter[T any] struct {
	v  T
	ev *Event
}

// NewStore returns a FIFO store with the given capacity (0 = unbounded).
func NewStore[T any](e *Env, capacity int) *Store[T] {
	if capacity < 0 {
		panic("sim: negative store capacity")
	}
	return &Store[T]{env: e, cap: capacity}
}

// Len returns the number of buffered items.
func (s *Store[T]) Len() int { return len(s.items) - s.head }

// Put enqueues v, blocking the process while the store is full.
func (s *Store[T]) Put(p *Proc, v T) {
	if s.cap == 0 || s.Len() < s.cap || s.gethead < len(s.getters) {
		s.deliver(v)
		return
	}
	w := &storePutter[T]{v: v, ev: s.env.NewEvent()}
	s.putters = append(s.putters, w)
	p.Wait(w.ev)
}

// TryPut enqueues v without blocking, reporting success.
func (s *Store[T]) TryPut(v T) bool {
	if s.cap != 0 && s.Len() >= s.cap && s.gethead == len(s.getters) {
		return false
	}
	s.deliver(v)
	return true
}

func (s *Store[T]) deliver(v T) {
	if s.gethead < len(s.getters) {
		g := s.getters[s.gethead]
		s.getters[s.gethead] = nil
		s.gethead++
		if s.gethead == len(s.getters) {
			s.getters = s.getters[:0]
			s.gethead = 0
		}
		g.v = v
		g.ev.Fire(nil)
		return
	}
	if s.head == len(s.items) && s.head > 0 {
		// Fully drained (pop zeroed every consumed slot): rewind so the
		// backing array is reused instead of growing forever.
		s.items = s.items[:0]
		s.head = 0
	}
	s.items = append(s.items, v)
}

// Get dequeues the oldest item, blocking the process while the store is
// empty.
func (s *Store[T]) Get(p *Proc) T {
	if s.head < len(s.items) {
		return s.pop()
	}
	var g *storeGetter[T]
	if n := len(s.free); n > 0 {
		g = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		g = &storeGetter[T]{ev: s.env.NewEvent()}
	}
	s.getters = append(s.getters, g)
	p.Wait(g.ev)
	v := g.v
	var zero T
	g.v = zero
	g.ev.Reset()
	if len(s.free) < 4 {
		s.free = append(s.free, g)
	}
	return v
}

func (s *Store[T]) pop() T {
	v := s.items[s.head]
	var zero T
	s.items[s.head] = zero
	s.head++
	if s.head == len(s.items) {
		s.items = s.items[:0]
		s.head = 0
	}
	// A slot opened; admit the oldest blocked putter, if any.
	if s.puthead < len(s.putters) && (s.cap == 0 || s.Len() < s.cap) {
		w := s.putters[s.puthead]
		s.putters[s.puthead] = nil
		s.puthead++
		if s.puthead == len(s.putters) {
			s.putters = s.putters[:0]
			s.puthead = 0
		}
		s.items = append(s.items, w.v)
		w.ev.Fire(nil)
	}
	return v
}
