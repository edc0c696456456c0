package sim

// Cap returns the resource's total capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }
