package sim

// FluidServer models a work-conserving FIFO server with a fluid service
// rate (bytes per second): each request occupies the server for
// size/rate seconds, and requests queue in arrival order. Because the
// queue is fluid, admission is computed in O(1) — the server keeps a
// "busy until" horizon that each request extends.
//
// It models both an I/O device channel (rate = device bandwidth) and a
// cgroup-style throttle (rate = configured limit).
type FluidServer struct {
	rate      float64 // units per second; <= 0 means unlimited
	busyUntil Time
}

// NewFluidServer creates a server with the given rate in units/second.
// A rate <= 0 means the server never delays requests.
func NewFluidServer(unitsPerSecond float64) *FluidServer {
	return &FluidServer{rate: unitsPerSecond}
}

// SetRate changes the service rate for subsequent requests.
func (f *FluidServer) SetRate(unitsPerSecond float64) { f.rate = unitsPerSecond }

// Rate returns the current service rate.
func (f *FluidServer) Rate() float64 { return f.rate }

// Serve blocks p until units of work have been served, honoring FIFO order
// with all earlier requests. It returns the total delay experienced.
func (f *FluidServer) Serve(p *Proc, units float64) Duration {
	d := f.Reserve(p.Now(), units)
	if d > 0 {
		p.Sleep(d)
	}
	return d
}

// Reserve computes, without blocking, the delay a request of the given
// size arriving at now would experience, and commits the reservation.
func (f *FluidServer) Reserve(now Time, units float64) Duration {
	if f.rate <= 0 || units <= 0 {
		return 0
	}
	start := f.busyUntil
	if start < now {
		start = now
	}
	service := Duration(units / f.rate * float64(Second))
	f.busyUntil = start + Time(service)
	return Duration(f.busyUntil - now)
}

// Backlog returns how far in the future the server is already committed.
func (f *FluidServer) Backlog(now Time) Duration {
	if f.busyUntil <= now {
		return 0
	}
	return Duration(f.busyUntil - now)
}
