// Package net models a TCP-style transport on the simulated clock,
// reusing the fluid-link machinery the replication log shipper uses
// (internal/repl): a server NIC as one ingress and one egress
// sim.FluidServer shared by every connection (so fan-in contention is
// real), per-frame one-way latency, and a bounded accept backlog whose
// overflow refuses new connections — the first admission-control line
// of the serving front end.
//
// The transport also carries a seeded link-fault model (driven by
// internal/fault through SetPartition/SetLossProb/SetDegrade/ResetConns):
// full and asymmetric partitions park sends until the link heals, frames
// are lost per-frame with a private RNG, bandwidth/latency degrade by a
// factor, and connections reset mid-stream with a typed error. Every
// fault is a sim-clock event producing a typed error (ErrPeerReset,
// ErrPartitioned, ErrTimeout) rather than a silent hang; with no fault
// armed the data path performs no RNG draws and no extra sleeps, so
// fault-free runs stay byte-identical to a build without the model.
//
// Everything runs in simulated time on sim procs; there are no real
// sockets. Determinism follows from the simulator's lockstep execution.
package net

import (
	"errors"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Typed transport errors.
var (
	ErrNoListener     = errors.New("net: connection refused (no listener)")
	ErrBacklogFull    = errors.New("net: connection refused (accept backlog full)")
	ErrListenerClosed = errors.New("net: listener closed")
	ErrClosed         = errors.New("net: connection closed")
	ErrPeerReset      = errors.New("net: connection reset by peer")
	ErrPartitioned    = errors.New("net: network partitioned")
	ErrTimeout        = errors.New("net: receive timeout")
)

// PartitionMode selects which direction of the segment is cut.
type PartitionMode int

const (
	PartitionNone     PartitionMode = iota
	PartitionBoth                   // full partition: nothing crosses
	PartitionToServer               // asymmetric: client→server blocked
	PartitionToClient               // asymmetric: server→client blocked
)

func (m PartitionMode) String() string {
	switch m {
	case PartitionNone:
		return "none"
	case PartitionBoth:
		return "both"
	case PartitionToServer:
		return "to-server"
	case PartitionToClient:
		return "to-client"
	}
	return "invalid"
}

// Config seeds the transport's link-fault model.
type Config struct {
	FaultSeed int64 // seeds the private per-frame loss RNG
}

// The segment's fixed shape.
const (
	linkMBps      = 1000                  // per-direction NIC bandwidth
	latency       = 100 * sim.Microsecond // one-way frame latency
	acceptBacklog = 64                    // pending-connection bound per listener
)

// FaultCounters is the transport's cumulative fault accounting.
type FaultCounters struct {
	FramesDropped    int64 // frames lost after transmit (per-frame loss)
	Resets           int64 // connections reset mid-stream
	Partitions       int64 // transitions into a partitioned state
	DialsPartitioned int64 // dials refused because the segment was cut
	DegradeEvents    int64 // transitions into a degraded (factor>1) state
}

// Network is one simulated network segment: clients dial listeners by
// address through a shared pair of directional links.
type Network struct {
	Sm *sim.Sim

	ingress *sim.FluidServer // client → server direction
	egress  *sim.FluidServer // server → client direction

	listeners map[string]*Listener

	// Refused counts dials rejected for a full accept backlog;
	// NoListener counts dials to closed or absent addresses.
	Refused    int64
	NoListener int64

	// Link-fault state (see SetPartition/SetLossProb/SetDegrade).
	partition PartitionMode
	lossProb  float64
	degrade   float64       // ≥1: latency multiplier, bandwidth divisor
	faultRNG  *sim.RNG      // private per-frame loss stream
	healQ     sim.WaitQueue // partition-parked senders wait here
	conns     map[uint64]*Conn
	nextPair  uint64
	Flt       FaultCounters
}

// New builds a network on the simulation.
func New(sm *sim.Sim, cfg Config) *Network {
	return &Network{
		Sm:        sm,
		ingress:   sim.NewFluidServer(linkMBps * 1e6),
		egress:    sim.NewFluidServer(linkMBps * 1e6),
		listeners: make(map[string]*Listener),
		degrade:   1,
		faultRNG:  sim.NewRNG(cfg.FaultSeed ^ 0x6e6574), // "net"; no draws unless loss armed
		conns:     make(map[uint64]*Conn),
	}
}

// lat is the effective one-way latency under the current degrade factor.
func (n *Network) lat() sim.Duration {
	if n.degrade == 1 {
		return latency
	}
	return sim.Duration(float64(latency) * n.degrade)
}

// blockedDir reports whether frames travelling in the given direction
// are currently cut by a partition.
func (n *Network) blockedDir(toServer bool) bool {
	switch n.partition {
	case PartitionBoth:
		return true
	case PartitionToServer:
		return toServer
	case PartitionToClient:
		return !toServer
	}
	return false
}

// SetPartition cuts (or heals, with PartitionNone) the segment. Senders
// whose direction is cut park until heal; dials fail typed. Healing
// wakes every parked sender.
func (n *Network) SetPartition(m PartitionMode) {
	if m == n.partition {
		return
	}
	if n.partition == PartitionNone {
		n.Flt.Partitions++
	}
	n.partition = m
	n.healQ.WakeAll(n.Sm)
}

// SetLossProb arms (or with 0 disarms) per-frame loss: each delivered
// frame is independently dropped with probability prob, drawn from the
// network's private RNG so the simulation's streams are untouched.
func (n *Network) SetLossProb(prob float64) {
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	n.lossProb = prob
}

// SetDegrade applies a bandwidth/latency degradation factor: link rate
// divides by factor and one-way latency multiplies by it. Factor 1
// restores nominal service.
func (n *Network) SetDegrade(factor float64) {
	if factor < 1 {
		factor = 1
	}
	if factor > 1 && n.degrade == 1 {
		n.Flt.DegradeEvents++
	}
	n.degrade = factor
	n.ingress.SetRate(linkMBps * 1e6 / factor)
	n.egress.SetRate(linkMBps * 1e6 / factor)
}

// ResetConns resets a fraction of the live connections mid-stream (both
// endpoints observe ErrPeerReset after draining buffered frames). The
// victims are the oldest conns in pair-id order, so the choice is
// deterministic. Returns how many were reset.
func (n *Network) ResetConns(frac float64) int {
	if frac <= 0 || len(n.conns) == 0 {
		return 0
	}
	ids := make([]uint64, 0, len(n.conns))
	for id := range n.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	k := len(ids)
	if frac < 1 {
		k = int(frac * float64(len(ids)))
		if k < 1 {
			k = 1
		}
	}
	for _, id := range ids[:k] {
		n.conns[id].reset()
	}
	return k
}

// ActiveConns reports the number of live connections.
func (n *Network) ActiveConns() int { return len(n.conns) }

// RegisterTelemetry registers the transport's fault/health series.
func (n *Network) RegisterTelemetry(r *telemetry.Registry) {
	r.Gauge("net", "active_conns", "conns", func() float64 { return float64(len(n.conns)) })
	r.Gauge("net", "partition", "mode", func() float64 { return float64(n.partition) })
	r.Gauge("net", "degrade", "factor", func() float64 { return n.degrade })
	r.CounterFunc("net", "frames_dropped", "frames", func() float64 { return float64(n.Flt.FramesDropped) })
	r.CounterFunc("net", "resets", "conns", func() float64 { return float64(n.Flt.Resets) })
	r.CounterFunc("net", "partitions", "events", func() float64 { return float64(n.Flt.Partitions) })
	r.CounterFunc("net", "dials_refused", "dials", func() float64 { return float64(n.Refused) })
	r.CounterFunc("net", "dials_no_listener", "dials", func() float64 { return float64(n.NoListener) })
	r.CounterFunc("net", "dials_partitioned", "dials", func() float64 { return float64(n.Flt.DialsPartitioned) })
}

// Listen binds a listener to addr.
func (n *Network) Listen(addr string) (*Listener, error) {
	if _, ok := n.listeners[addr]; ok {
		return nil, errors.New("net: address in use: " + addr)
	}
	l := &Listener{nw: n, addr: addr}
	n.listeners[addr] = l
	return l, nil
}

// Dial opens a connection to addr from proc p, charging the SYN/SYN-ACK
// round trip. A full accept backlog refuses the connection (counted on
// the network), mirroring a saturated listen(2) queue; a partitioned
// segment refuses it typed (the SYN or SYN-ACK cannot cross).
func (n *Network) Dial(p *sim.Proc, addr string) (*Conn, error) {
	p.Sleep(n.lat()) // SYN travels to the server
	if n.partition != PartitionNone {
		n.Flt.DialsPartitioned++
		p.Sleep(n.lat()) // connect timeout stands in for the lost SYN
		return nil, ErrPartitioned
	}
	l := n.listeners[addr]
	if l == nil || l.closed {
		n.NoListener++
		p.Sleep(n.lat()) // RST back
		return nil, ErrNoListener
	}
	if len(l.backlog) >= acceptBacklog {
		n.Refused++
		l.Refused++
		p.Sleep(n.lat()) // RST back
		return nil, ErrBacklogFull
	}
	id := n.nextPair
	n.nextPair++
	client := &Conn{nw: n, out: n.ingress, toServer: true, id: id}
	server := &Conn{nw: n, out: n.egress, id: id}
	client.peer, server.peer = server, client
	n.conns[id] = client
	l.backlog = append(l.backlog, server)
	l.waiters.WakeAll(n.Sm)
	p.Sleep(n.lat()) // SYN-ACK travels back
	return client, nil
}

// Listener accepts inbound connections on an address.
type Listener struct {
	nw      *Network
	addr    string
	backlog []*Conn
	waiters sim.WaitQueue
	closed  bool

	Accepted int64
	Refused  int64
}

// Accept blocks p until a pending connection is available or the
// listener closes (ErrListenerClosed).
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	for len(l.backlog) == 0 && !l.closed {
		l.waiters.Wait(p)
	}
	if len(l.backlog) == 0 {
		return nil, ErrListenerClosed
	}
	c := popFront(&l.backlog)
	l.Accepted++
	return c, nil
}

// Close unbinds the listener, wakes blocked acceptors, and resets every
// connection still waiting in the backlog (their clients observe
// ErrClosed, as after a RST).
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.nw.listeners, l.addr)
	for _, c := range l.backlog {
		c.Close()
	}
	l.backlog = nil
	l.waiters.WakeAll(l.nw.Sm)
}

// Depth returns the current accept-backlog depth.
func (l *Listener) Depth() int { return len(l.backlog) }

// Conn is one endpoint of an established connection.
type Conn struct {
	nw       *Network
	peer     *Conn
	out      *sim.FluidServer // directional link this endpoint transmits on
	toServer bool             // transmits client→server (dialer side)
	id       uint64           // pair id, shared by both endpoints
	inbox    [][]byte
	rq       sim.WaitQueue
	closed   bool
	wasReset bool
	failed   error // typed error delivered to pending/future Recv calls
}

// Pair returns the connection's pair id — identical on both endpoints
// and unique per dial on this network, so client and server can
// correlate their views of one connection.
func (c *Conn) Pair() uint64 { return c.id }

// closeErr is the typed error a sender observes on a dead connection.
func (c *Conn) closeErr() error {
	if c.wasReset || (c.peer != nil && c.peer.wasReset) {
		return ErrPeerReset
	}
	return ErrClosed
}

// Send transmits one encoded frame: bandwidth on this direction's
// shared link, then one-way latency, then delivery to the peer's inbox.
// A partition covering this direction parks the send until heal (or
// until the connection dies, surfacing the typed reset). Sending on or
// to a closed connection returns ErrClosed, or ErrPeerReset after a
// mid-stream reset.
func (c *Conn) Send(p *sim.Proc, frame []byte) error {
	if c.closed {
		return c.closeErr()
	}
	for c.nw.blockedDir(c.toServer) && !c.closed {
		c.nw.healQ.Wait(p)
	}
	if c.closed {
		return c.closeErr()
	}
	c.out.Serve(p, float64(len(frame)))
	p.Sleep(c.nw.lat())
	if c.closed || c.peer.closed {
		return c.closeErr()
	}
	if c.nw.lossProb > 0 && c.nw.faultRNG.Float64() < c.nw.lossProb {
		c.nw.Flt.FramesDropped++
		return nil // lost in flight; the sender cannot tell
	}
	c.peer.deliver(frame)
	return nil
}

// Deliver places a frame directly in the peer's inbox with no bandwidth
// or latency charge — the control-plane path for shutdown/teardown
// notifications issued from outside any proc (e.g. Server.Stop draining
// an admission queue), where parking to charge a link is impossible.
// Data-plane traffic must use Send.
func (c *Conn) Deliver(frame []byte) {
	if c.closed || c.peer.closed {
		return
	}
	c.peer.deliver(frame)
}

func (c *Conn) deliver(frame []byte) {
	c.inbox = append(c.inbox, frame)
	c.rq.WakeAll(c.nw.Sm)
}

// Recv blocks p until a frame arrives, draining buffered frames first.
// After the inbox drains it returns the peer's close (ErrClosed) or the
// error a reset installed (ErrPeerReset).
func (c *Conn) Recv(p *sim.Proc) ([]byte, error) {
	for len(c.inbox) == 0 && !c.closed && c.failed == nil && !c.peer.closed {
		c.rq.Wait(p)
	}
	return c.recvTail()
}

// RecvTimeout is Recv with a deadline: it returns ErrTimeout if no
// frame, close, or failure arrives within d. A timed-out connection may
// still deliver the reply later, so callers that time out must abandon
// the connection rather than reuse it.
func (c *Conn) RecvTimeout(p *sim.Proc, d sim.Duration) ([]byte, error) {
	deadline := p.Now() + sim.Time(d)
	for len(c.inbox) == 0 && !c.closed && c.failed == nil && !c.peer.closed {
		remain := sim.Duration(deadline - p.Now())
		if remain <= 0 {
			return nil, ErrTimeout
		}
		if c.rq.WaitTimeout(p, remain) {
			return nil, ErrTimeout
		}
	}
	return c.recvTail()
}

func (c *Conn) recvTail() ([]byte, error) {
	if len(c.inbox) > 0 {
		return popFront(&c.inbox), nil
	}
	if c.failed != nil {
		return nil, c.failed
	}
	return nil, ErrClosed
}

// popFront removes and returns the head of *q, keeping order and
// capacity, so the next append reuses the backing array. The vacated tail
// slot is cleared so the array does not pin what was popped.
func popFront[T any](q *[]T) T {
	s := *q
	head := s[0]
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	*q = s[:n]
	return head
}

// Close tears down both endpoints and wakes blocked receivers; buffered
// frames on either side remain readable before the close is observed.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	delete(c.nw.conns, c.id)
	c.closed = true
	c.rq.WakeAll(c.nw.Sm)
	if c.peer != nil && !c.peer.closed {
		c.peer.closed = true
		c.peer.rq.WakeAll(c.nw.Sm)
	}
	// Partition-parked senders on this conn must wake to observe the
	// death (no-op when nothing is parked).
	c.nw.healQ.WakeAll(c.nw.Sm)
}

// reset kills the connection mid-stream: both endpoints observe
// ErrPeerReset once their buffered frames drain.
func (c *Conn) reset() {
	if c.closed {
		return
	}
	c.nw.Flt.Resets++
	c.wasReset = true
	c.failed = ErrPeerReset
	if c.peer != nil {
		c.peer.wasReset = true
		c.peer.failed = ErrPeerReset
	}
	c.Close()
}

// Closed reports whether the endpoint is closed.
func (c *Conn) Closed() bool { return c.closed }
