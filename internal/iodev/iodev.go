// Package iodev models the paper's NVMe SSD (Intel 750 series, 1.2 TB):
// up to 2500 MB/s sequential read and 1200 MB/s sequential write. Reads
// and writes are served by independent fluid FIFO channels (NVMe has
// enough internal parallelism that reads and writes rarely serialize
// against each other), plus a fixed per-request device latency.
//
// A cgroup-style throttle (package cgroup) can be layered in front of the
// device to reproduce the paper's BlockIOReadBandwidth /
// BlockIOWriteBandwidth experiments.
package iodev

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// ErrTransient is the transient device failure surfaced by a fault. It
// models media retries, link resets, and the other recoverable errors a
// real NVMe driver reports; callers are expected to retry.
var ErrTransient = errors.New("iodev: transient device error")

// Fault is fault-injection state installed on a device by a fault
// injector (package fault). Fields are toggled by the injector while a
// fault event is active and zeroed between events; a nil *Fault on the
// device is the (default) fast path with no per-request overhead. Reads
// and writes are hit alike.
type Fault struct {
	StallNs float64 // extra latency added to every request while active
	ErrProb float64 // per-request transient failure probability

	rng *sim.RNG
}

const (
	// maxErrProb caps failure probabilities so retry loops terminate
	// quickly; a fault injector asking for certainty still leaves retries
	// a way out.
	maxErrProb = 0.9
	// retryNs is the device/driver retry penalty per failed attempt.
	retryNs = 1e6
)

// NewFault creates fault state drawing from the given deterministic RNG.
func NewFault(rng *sim.RNG) *Fault {
	return &Fault{rng: rng}
}

// apply charges the fault's stall to p and reports whether this request
// fails transiently. It is called once per device request attempt. The
// failure draw uses the probability in force when the attempt began; the
// retry penalty is charged only if the probability is still nonzero once
// the stall is over.
func (f *Fault) apply(p *sim.Proc, ctr *metrics.Counters) bool {
	errProb := min(f.ErrProb, maxErrProb)
	if f.StallNs > 0 {
		p.Sleep(sim.Duration(f.StallNs))
	}
	if errProb > 0 && f.rng.Bool(errProb) {
		ctr.FaultIOErrors++
		if f.ErrProb > 0 {
			p.Sleep(retryNs)
		}
		return true
	}
	return false
}

// Spec describes a device.
type Spec struct {
	Name        string
	ReadMBps    float64
	WriteMBps   float64
	ReadLatNs   float64 // fixed per-request latency, excluded from channel occupancy
	WriteLatNs  float64
	MaxRequestB int64 // requests larger than this are split (device MDTS)
}

// PaperSSD returns the paper's Intel 750 NVMe drive.
func PaperSSD() Spec {
	return Spec{
		Name:        "intel750-nvme",
		ReadMBps:    2500,
		WriteMBps:   1200,
		ReadLatNs:   80_000, // ~80us typical NVMe read latency
		WriteLatNs:  25_000, // writes land in the device buffer
		MaxRequestB: 1 << 20,
	}
}

// Throttle is a bandwidth limiter placed in front of a device direction.
// A nil *Throttle or a zero limit means unlimited.
type Throttle struct {
	server *sim.FluidServer
}

// NewThrottle creates a throttle with the given limit (0 = unlimited).
func NewThrottle(limitMBps float64) *Throttle {
	return &Throttle{server: sim.NewFluidServer(limitMBps * 1e6)}
}

// SetLimit changes the limit in MB/s (0 = unlimited).
func (t *Throttle) SetLimit(limitMBps float64) {
	t.server.SetRate(limitMBps * 1e6)
}

// reserve commits throttle capacity without blocking; the caller overlaps
// the returned delay with the device's own service delay (a request flows
// through the throttle and the device as a pipeline, so sustained
// throughput is the minimum of the two rates, not their harmonic sum).
func (t *Throttle) reserve(now sim.Time, bytes int64) sim.Duration {
	if t == nil {
		return 0
	}
	return t.server.Reserve(now, float64(bytes))
}

// channel is one transfer direction of a device.
type channel struct {
	fluid    *sim.FluidServer
	throttle *Throttle // nil = unlimited
	// throttleWaitNs is the cumulative ns by which a request's throttle
	// reservation exceeded the device's own service delay — the stall
	// attributable purely to the cgroup-style limit rather than device
	// saturation.
	throttleWaitNs int64
	latNs          float64 // fixed per-request latency
	write          bool    // which SSD counters a request bumps
}

// count adds one request of the given size to ctr's counters for this
// direction.
func (c *channel) count(ctr *metrics.Counters, bytes int64) {
	if c.write {
		ctr.SSDWriteBytes += bytes
		ctr.SSDWriteOps++
		return
	}
	ctr.SSDReadBytes += bytes
	ctr.SSDReadOps++
}

// Device is a simulated NVMe drive bound to one simulation.
type Device struct {
	Spec Spec
	Ctr  *metrics.Counters

	read, write channel

	fault *Fault
}

// ThrottleWaitNs returns the cumulative read/write throttle-induced wait.
func (d *Device) ThrottleWaitNs() (read, write int64) {
	return d.read.throttleWaitNs, d.write.throttleWaitNs
}

// Backlog returns how far into the future each channel is committed at
// now — the fluid model's instantaneous queue depth, in pending time.
func (d *Device) Backlog(now sim.Time) (read, write sim.Duration) {
	return d.read.fluid.Backlog(now), d.write.fluid.Backlog(now)
}

// New creates a device.
func New(spec Spec, ctr *metrics.Counters) *Device {
	return &Device{
		Spec:  spec,
		Ctr:   ctr,
		read:  channel{fluid: sim.NewFluidServer(spec.ReadMBps * 1e6), latNs: spec.ReadLatNs},
		write: channel{fluid: sim.NewFluidServer(spec.WriteMBps * 1e6), latNs: spec.WriteLatNs, write: true},
	}
}

// SetThrottles installs cgroup-style read/write limits (nil = none).
func (d *Device) SetThrottles(read, write *Throttle) {
	d.read.throttle = read
	d.write.throttle = write
}

// SetFault installs fault-injection state (nil = no faults).
func (d *Device) SetFault(f *Fault) { d.fault = f }

// FaultState returns the installed fault state, if any.
func (d *Device) FaultState() *Fault { return d.fault }

// Read blocks p for the duration of a read of the given size and returns
// the total time spent (throttle + queue + transfer + latency). Transient
// fault-injected failures are absorbed here: the device retries until the
// request succeeds, charging the fault's retry penalty each attempt — the
// model for driver-level recovery invisible to the caller.
func (d *Device) Read(p *sim.Proc, bytes int64) sim.Duration {
	start := p.Now()
	for {
		if _, err := d.ReadErr(p, bytes); err == nil {
			return sim.Duration(p.Now() - start)
		}
	}
}

// ReadErr performs one read attempt: it charges the full transfer and any
// fault-injected stall, and returns ErrTransient when the installed fault
// fails the request. Callers that can propagate errors (the buffer pool)
// use this and own the retry policy; fire-and-forget callers use Read.
func (d *Device) ReadErr(p *sim.Proc, bytes int64) (sim.Duration, error) {
	return d.attempt(p, &d.read, bytes)
}

// attempt performs one request attempt on channel c: throttle, queue,
// transfer and latency, then any installed fault.
func (d *Device) attempt(p *sim.Proc, c *channel, bytes int64) (sim.Duration, error) {
	if bytes <= 0 {
		return 0, nil
	}
	start := p.Now()
	tDelay := c.throttle.reserve(p.Now(), bytes)
	var devDone sim.Duration
	for remaining := bytes; remaining > 0; {
		chunk := remaining
		if d.Spec.MaxRequestB > 0 && chunk > d.Spec.MaxRequestB {
			chunk = d.Spec.MaxRequestB
		}
		devDone = c.fluid.Reserve(p.Now(), float64(chunk))
		remaining -= chunk
	}
	delay := devDone
	if tDelay > delay {
		delay = tDelay
		c.throttleWaitNs += int64(tDelay - devDone)
	}
	p.Sleep(delay + sim.Duration(c.latNs))
	c.count(d.Ctr, bytes)
	if s := metrics.StmtOf(p); s != nil {
		c.count(s, bytes)
	}
	if f := d.fault; f != nil && f.apply(p, d.Ctr) {
		return sim.Duration(p.Now() - start), ErrTransient
	}
	return sim.Duration(p.Now() - start), nil
}

// WriteAsync charges a write to the device (and its throttle reservation)
// without blocking the caller — the model for background page cleaning,
// where the eviction path hands the page to an I/O completion port. The
// deferred work still occupies the write channel, delaying later
// synchronous writes such as log flushes.
func (d *Device) WriteAsync(now sim.Time, bytes int64) {
	if bytes <= 0 {
		return
	}
	d.write.throttle.reserve(now, bytes)
	d.write.fluid.Reserve(now, float64(bytes))
	d.write.count(d.Ctr, bytes)
}

// Write blocks p for the duration of a write and returns the time spent.
// Like Read, transient fault-injected failures are retried internally
// until the write lands.
func (d *Device) Write(p *sim.Proc, bytes int64) sim.Duration {
	start := p.Now()
	for {
		if _, err := d.WriteErr(p, bytes); err == nil {
			return sim.Duration(p.Now() - start)
		}
	}
}

// WriteErr performs one write attempt, returning ErrTransient when the
// installed fault fails the request.
func (d *Device) WriteErr(p *sim.Proc, bytes int64) (sim.Duration, error) {
	return d.attempt(p, &d.write, bytes)
}
