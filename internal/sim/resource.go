package sim

// Resource is a counting resource (semaphore) with strict FIFO granting.
// Typical uses: DMA engines (capacity 1), SM block slots (capacity N),
// bounded queues of service slots.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	queue []*resWaiter
}

type resWaiter struct {
	n     int
	grant *Event
}

// NewResource returns a resource with the given capacity (>= 1).
func (e *Env) NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, cap: capacity}
}

// Acquire blocks the process until n units (1 <= n <= cap) are granted.
// Grants are strictly FIFO: a large request at the head blocks later small
// requests (no barging), which matches hardware queue semantics.
func (r *Resource) Acquire(p *Proc, n int) {
	if n < 1 || n > r.cap {
		panic("sim: invalid acquire count")
	}
	if len(r.queue) == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return
	}
	w := &resWaiter{n: n, grant: r.env.NewEvent()}
	r.queue = append(r.queue, w)
	p.Wait(w.grant)
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n < 1 || r.inUse-n < 0 {
		panic("sim: invalid release count")
	}
	r.inUse -= n
	for len(r.queue) > 0 {
		w := r.queue[0]
		if r.inUse+w.n > r.cap {
			break
		}
		r.queue = r.queue[1:]
		r.inUse += w.n
		w.grant.Fire(nil)
	}
}
