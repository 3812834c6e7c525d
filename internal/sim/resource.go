package sim

import "fmt"

// Resource is a counted FCFS resource: up to Capacity holders at once,
// waiters served in arrival order. It models exclusive hardware units
// — a SHAVE array, a USB endpoint, a host CPU slot.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  waitList
	// accounting
	totalAcquisitions int
	busyTime          int64 // integral of inUse over time, in unit·ns
	lastStamp         int64
}

// NewResource creates a resource with the given capacity (>= 1).
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

func (r *Resource) stamp() {
	now := int64(r.env.now)
	r.busyTime += int64(r.inUse) * (now - r.lastStamp)
	r.lastStamp = now
}

// Acquire blocks p until a unit is available, then holds it.
//
//ncsw:allow unusedexport usb's TestTransferDriversAgree runs the process-loop reference transfer on it
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.empty() {
		r.stamp()
		r.inUse++
		r.totalAcquisitions++
		return
	}
	r.waiters.push(p)
	p.blockUnscheduled()
	// Release transferred the unit to us before waking.
}

// TryAcquire takes a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.empty() {
		r.stamp()
		r.inUse++
		r.totalAcquisitions++
		return true
	}
	return false
}

// TryAcquireOr is Acquire for a callback waiter (Env.Waiter): it takes
// a unit and reports true, or, while none is free, registers w on the
// wait list behind any parked processes and reports false. Release
// then hands w the unit and runs its fn in the slot an Acquire would
// have resumed in; fn holds the unit and must not acquire again.
func (r *Resource) TryAcquireOr(w *Proc) bool {
	if r.TryAcquire() {
		return true
	}
	w.register(&r.waiters)
	return false
}

// Release returns a unit, waking the oldest waiter if any. Releasing
// an unheld resource panics — it indicates a protocol bug in a model.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if w := r.waiters.pop(); w != nil {
		// Hand the unit directly to the next waiter: inUse stays
		// constant, so no other process can steal it in between.
		r.totalAcquisitions++
		w.wake()
		return
	}
	r.stamp()
	r.inUse--
}

// Utilization returns the time-average fraction of capacity in use
// from t=0 through now.
//
//ncsw:allow unusedexport usb's TestTransferDriversAgree compares hop utilization across transfer drivers with it
func (r *Resource) Utilization() float64 {
	r.stamp()
	now := int64(r.env.now)
	if now == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(now) / float64(r.capacity)
}

// Acquisitions returns the total number of grants so far.
//
//ncsw:allow unusedexport usb's TestTransferDriversAgree compares hop grants across transfer drivers with it
func (r *Resource) Acquisitions() int { return r.totalAcquisitions }
