package core

import "time"

// healthObservers is a HealthAware target's observer list. VPUTarget
// publishes its sticks' transitions through it, and composite its
// children's aggregate.
type healthObservers []func(healthy, total int, at time.Duration)

// SetHealthObserver implements HealthAware: fn sees every subsequent
// health transition with the healthy and total device counts, in
// virtual time. Observers accumulate — a parent pool and a
// health-aware admission queue can both subscribe. Register before
// Start.
func (o *healthObservers) SetHealthObserver(fn func(healthy, total int, at time.Duration)) {
	*o = append(*o, fn)
}

// publish hands one health report to every observer, in registration
// order.
func (o healthObservers) publish(healthy, total int, at time.Duration) {
	for _, fn := range o {
		fn(healthy, total, at)
	}
}

// composite is the child bookkeeping of a target over child targets,
// shared by Pool (children side by side) and Pipeline (children in a
// chain). Its observers see the aggregate (healthy, total) device
// counts across every child on each child transition; a child that is
// not HealthAware counts as permanently healthy.
type composite struct {
	healthObservers
	children []Target
	// jobs are the per-child jobs of the last Start.
	jobs []*Job
	// healthy/total hold each child's latest health report (full
	// health at Start).
	healthy, total []int
}

// TDPWatts implements Target: the aggregate TDP of the children.
func (c *composite) TDPWatts() float64 {
	var w float64
	for _, ch := range c.children {
		w += ch.TDPWatts()
	}
	return w
}

// DeviceCount reports how many devices the children drive, summed
// recursively (a child that reports no count is one device) — the
// capacity denominator health-aware admission scales against.
func (c *composite) DeviceCount() int {
	n := 0
	for _, ch := range c.children {
		n += targetDeviceCount(ch)
	}
	return n
}

// targetDeviceCount returns a target's device count when it reports
// one (VPUTarget, Pool, Pipeline), else 1.
func targetDeviceCount(t Target) int {
	if dc, ok := t.(interface{ DeviceCount() int }); ok {
		return dc.DeviceCount()
	}
	return 1
}

// ChildJobs returns the per-child jobs of the last Start. Valid after
// Start; fields settle once Env.Run returns.
func (c *composite) ChildJobs() []*Job { return c.jobs }

// start resets the per-run state for a Start and subscribes to every
// HealthAware child: each transition records the child's report, runs
// react (when set) and then republishes the aggregate.
func (c *composite) start(react func(child, healthy int)) {
	n := len(c.children)
	c.jobs = make([]*Job, n)
	c.healthy = make([]int, n)
	c.total = make([]int, n)
	for i, ch := range c.children {
		c.total[i] = targetDeviceCount(ch)
		c.healthy[i] = c.total[i]
		if ha, ok := ch.(HealthAware); ok {
			ha.SetHealthObserver(func(healthy, total int, at time.Duration) {
				c.healthy[i], c.total[i] = healthy, total
				if react != nil {
					react(i, healthy)
				}
				c.notifyHealth(at)
			})
		}
	}
}

// notifyHealth publishes the aggregate health to the composite's own
// observers.
func (c *composite) notifyHealth(at time.Duration) {
	if len(c.healthObservers) == 0 {
		return
	}
	var healthy, total int
	for i := range c.total {
		healthy += c.healthy[i]
		total += c.total[i]
	}
	c.publish(healthy, total, at)
}
