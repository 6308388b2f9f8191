package client

import (
	"errors"

	"repro/internal/net"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Resilient-client errors.
var (
	ErrBreakerOpen = errors.New("client: circuit breaker open")
	ErrUnavailable = errors.New("client: no endpoint reachable")
)

// Outcome classifies one logical Exec at the client boundary. The
// distinction OutcomeNotExecuted vs OutcomeUnknown is what the chaos
// safety checker audits: the resilient client only ever retries a write
// after an outcome the server guarantees was not executed (shed,
// shutdown, failover-interrupted-before-dispatch, failed dial); a write
// whose transport died mid-flight is Unknown and is never resent.
type Outcome int

const (
	OutcomeAcked       Outcome = iota // OK reply observed: commit acknowledged
	OutcomeFailed                     // server answered: statement ran and failed
	OutcomeNotExecuted                // never executed (shed/shutdown/unreachable/breaker)
	OutcomeUnknown                    // transport died mid-request: may have committed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeAcked:
		return "acked"
	case OutcomeFailed:
		return "failed"
	case OutcomeNotExecuted:
		return "not-executed"
	case OutcomeUnknown:
		return "unknown"
	}
	return "outcome(?)"
}

// The resilient client's policy.
const (
	maxAttempts = 6 // attempts per logical request, incl. the first

	// breakerThreshold consecutive breaker-keyed failures (CodeOverloaded,
	// CodeShutdown, resets, dial failures) open the circuit for
	// breakerCooldown; while open, requests fail fast without dialing.
	breakerThreshold = 8
	breakerCooldown  = sim.Second

	// replyTimeout bounds each reply wait (lossy links would otherwise
	// hang a blocking Recv forever).
	replyTimeout = 4 * sim.Second

	// hedgeAfter bounds hedged retries for idempotent reads: a query with
	// no reply after hedgeAfter is reissued on a second connection and the
	// first reply wins. Writes never hedge.
	hedgeAfter = 500 * sim.Millisecond
)

// Metrics is the shared accounting for every resilient client in one
// run (the sim is single-threaded, so plain fields suffice).
type Metrics struct {
	Dials       int64 // successful dial+handshake completions
	DialFails   int64 // failed dial attempts (refused/partitioned/no listener)
	Reconnects  int64 // dials after the first on a client
	Retries     int64 // request attempts after the first (safe retries only)
	Timeouts    int64 // reply waits that hit replyTimeout
	Resets      int64 // typed ErrPeerReset observations
	BackoffNs   int64 // total backoff slept
	BreakerOpen int64 // breaker open transitions
	BreakerShut int64 // breaker close (recovery) transitions
	HedgesSent  int64 // hedge legs issued
	HedgesWon   int64 // hedge leg answered first
	HedgesLost  int64 // primary leg answered first
	AckedExecs  int64 // execs acknowledged OK at the client boundary
	Ambiguous   int64 // execs with unknown outcome (never retried)
	Rotations   int64 // endpoint-list rotations (failover pursuit)
}

// Register exposes the client plane in the telemetry registry.
func (m *Metrics) Register(r *telemetry.Registry) {
	c := func(name, unit string, f func() int64) {
		r.CounterFunc("client", name, unit, func() float64 { return float64(f()) })
	}
	c("dials", "conns", func() int64 { return m.Dials })
	c("dial_fails", "conns", func() int64 { return m.DialFails })
	c("reconnects", "conns", func() int64 { return m.Reconnects })
	c("retries", "requests", func() int64 { return m.Retries })
	c("timeouts", "requests", func() int64 { return m.Timeouts })
	c("resets", "conns", func() int64 { return m.Resets })
	c("breaker_opens", "transitions", func() int64 { return m.BreakerOpen })
	c("breaker_closes", "transitions", func() int64 { return m.BreakerShut })
	c("hedges_sent", "requests", func() int64 { return m.HedgesSent })
	c("hedges_won", "requests", func() int64 { return m.HedgesWon })
	c("hedges_lost", "requests", func() int64 { return m.HedgesLost })
	c("acked_execs", "requests", func() int64 { return m.AckedExecs })
	c("ambiguous_execs", "requests", func() int64 { return m.Ambiguous })
	c("rotations", "endpoints", func() int64 { return m.Rotations })
	r.Gauge("client", "backoff_total", "ms", func() float64 { return float64(m.BackoffNs) / 1e6 })
}

// AckKey identifies one client-acknowledged exec: the transport pair id
// plus the request id, the same key the serving layer records with the
// commit LSN. The chaos checker joins the two views.
type AckKey struct {
	Pair uint64
	Req  uint64
}

// Resilient is a fault-tolerant protocol client: reconnect with
// jittered exponential backoff, a circuit breaker keyed on
// overload/shutdown/reset streaks, bounded hedged retries for
// idempotent reads, and a failover-aware endpoint list.
type Resilient struct {
	Nw   *net.Network
	M    *Metrics
	G    *sim.RNG // backoff-jitter stream (required)
	Name string

	// Endpoints is the failover-aware dial list: on shutdown/failover
	// replies or dial failures the client rotates to the next address, so
	// it finds the promoted standby after repl.Failover.
	Endpoints []string

	// OnAck, when set, observes every acknowledged exec (chaos harness
	// safety checker hookup).
	OnAck func(AckKey)

	conn     *Conn
	ep       int
	everUp   bool
	streak   int
	open     bool
	openTill sim.Time
}

// NewResilient builds a client over the dial list endpoints; nothing
// dials until the first request.
func NewResilient(nw *net.Network, endpoints []string, m *Metrics, g *sim.RNG, name string) *Resilient {
	return &Resilient{Endpoints: endpoints, Nw: nw, M: m, G: g, Name: name}
}

// Endpoint returns the address the client currently favors.
func (r *Resilient) Endpoint() string { return r.Endpoints[r.ep] }

func (r *Resilient) rotate() {
	if len(r.Endpoints) > 1 {
		r.ep = (r.ep + 1) % len(r.Endpoints)
		r.M.Rotations++
	}
}

// noteBad records one breaker-keyed failure.
func (r *Resilient) noteBad(p *sim.Proc) {
	r.streak++
	if r.streak >= breakerThreshold {
		if !r.open {
			r.open = true
			r.M.BreakerOpen++
		}
		r.openTill = p.Now() + sim.Time(breakerCooldown)
	}
}

func (r *Resilient) noteGood() {
	if r.open {
		r.open = false
		r.M.BreakerShut++
	}
	r.streak = 0
}

// breakerBlocked fails fast while the circuit is open; once the
// cooldown passes the next attempt probes half-open.
func (r *Resilient) breakerBlocked(p *sim.Proc) bool {
	return r.open && p.Now() < r.openTill
}

// Reconnect backoff doubles from backoffBase per attempt up to backoffMax.
const (
	backoffBase = 20 * sim.Millisecond
	backoffMax  = 2 * sim.Second
)

func (r *Resilient) backoff(p *sim.Proc, attempt int) {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	// Full jitter on the upper half keeps retry waves decorrelated.
	d = d/2 + sim.Duration(r.G.Float64()*float64(d/2))
	r.M.BackoffNs += int64(d)
	p.Sleep(d)
}

func (r *Resilient) dropConn() {
	if r.conn != nil {
		r.conn.Abandon()
		r.conn = nil
	}
}

// Close abandons the current connection.
func (r *Resilient) Close() { r.dropConn() }

// ensure dials the favored endpoint once if not connected. Dial
// failures are breaker-keyed and rotate the endpoint list.
func (r *Resilient) ensure(p *sim.Proc) error {
	if r.conn != nil && r.conn.Dead() {
		// Died between requests (reset event, server stop): nothing was
		// in flight, so dropping it here is unambiguous.
		r.dropConn()
	}
	if r.conn != nil {
		return nil
	}
	c, err := Dial(p, r.Nw, r.Endpoint(), r.Name)
	if err != nil {
		r.M.DialFails++
		if errors.Is(err, net.ErrPeerReset) {
			r.M.Resets++
		}
		r.noteBad(p)
		r.rotate()
		return err
	}
	r.M.Dials++
	if r.everUp {
		r.M.Reconnects++
	}
	r.everUp = true
	r.noteGood()
	r.conn = c
	return nil
}

// transportFail classifies a dead-connection error and drops the conn.
func (r *Resilient) transportFail(p *sim.Proc, err error) {
	if errors.Is(err, net.ErrPeerReset) {
		r.M.Resets++
	}
	if errors.Is(err, net.ErrTimeout) {
		r.M.Timeouts++
	}
	r.noteBad(p)
	r.dropConn()
}

// retryableCode reports whether an error reply guarantees the request
// was not executed (so even a write can safely be retried).
func retryableCode(code proto.Code) bool {
	switch code {
	case proto.CodeOverloaded, proto.CodeShutdown, proto.CodeFailover:
		return true
	}
	return false
}

// Exec runs one write statement with at-most-once effect semantics: it
// retries only outcomes the server guarantees were not executed and
// reports Unknown (without retrying) when the transport dies
// mid-request.
func (r *Resilient) Exec(p *sim.Proc, name string, arg uint64) (Reply, Outcome) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.M.Retries++
			r.backoff(p, attempt)
		}
		if r.breakerBlocked(p) {
			continue
		}
		if r.ensure(p) != nil {
			continue
		}
		c := r.conn
		id, err := c.issue(p, proto.KExec, name, arg)
		if err != nil {
			// A send error cannot distinguish "died before transmit" from
			// "died after the frame crossed", so be conservative: the
			// write's outcome is unknown and it is never resent.
			r.transportFail(p, err)
			r.M.Ambiguous++
			return Reply{}, OutcomeUnknown
		}
		rep, err := c.await(p, id, replyTimeout)
		if err != nil {
			r.transportFail(p, err)
			r.M.Ambiguous++
			return Reply{}, OutcomeUnknown
		}
		if rep.OK {
			r.noteGood()
			r.M.AckedExecs++
			if r.OnAck != nil {
				r.OnAck(AckKey{Pair: c.Pair(), Req: id})
			}
			return rep, OutcomeAcked
		}
		if retryableCode(rep.Code) {
			r.noteBad(p)
			if rep.Code != proto.CodeOverloaded {
				// Shutdown/failover: this endpoint is going away.
				r.dropConn()
				r.rotate()
			}
			continue
		}
		r.noteGood() // the server is responsive; the statement just failed
		return rep, OutcomeFailed
	}
	return Reply{}, OutcomeNotExecuted
}

// Query runs one idempotent read with retries on any failure and
// hedging. A non-nil error means no server reply was obtained
// within the attempt budget.
func (r *Resilient) Query(p *sim.Proc, name string, arg uint64) (Reply, error) {
	lastErr := error(ErrUnavailable)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.M.Retries++
			r.backoff(p, attempt)
		}
		if r.breakerBlocked(p) {
			lastErr = ErrBreakerOpen
			continue
		}
		if err := r.ensure(p); err != nil {
			lastErr = err
			continue
		}
		rep, err := r.queryOnce(p, name, arg)
		if err != nil {
			lastErr = err
			continue
		}
		if rep.OK || !retryableCode(rep.Code) {
			r.noteGood()
			return rep, nil
		}
		r.noteBad(p)
		if rep.Code != proto.CodeOverloaded {
			r.dropConn()
			r.rotate()
		}
		lastErr = errors.New("client: " + rep.Code.String())
	}
	return Reply{}, lastErr
}

// hedgeBox is the rendezvous between the main proc and the hedge legs.
type hedgeBox struct {
	wq      sim.WaitQueue
	posts   int
	legs    int
	winner  int // -1 until an OK-or-reply leg lands
	rep     Reply
	lastErr error
}

func (b *hedgeBox) post(sm *sim.Sim, leg int, rep Reply, err error) {
	b.posts++
	if err == nil && b.winner < 0 {
		b.winner = leg
		b.rep = rep
	}
	if err != nil {
		b.lastErr = err
	}
	b.wq.WakeAll(sm)
}

// queryOnce issues one read on the current connection, hedging onto a
// second connection if the reply is slow. Whatever happens, connections
// touched by a hedge are abandoned (a stale reply may still be in
// flight on them).
func (r *Resilient) queryOnce(p *sim.Proc, name string, arg uint64) (Reply, error) {
	c := r.conn
	id, err := c.issue(p, proto.KQuery, name, arg)
	if err != nil {
		r.transportFail(p, err)
		return Reply{}, err
	}
	rep, err := c.await(p, id, hedgeAfter)
	if err == nil {
		return rep, nil
	}
	if !errors.Is(err, net.ErrTimeout) {
		r.transportFail(p, err)
		return Reply{}, err
	}
	// Slow reply: hedge. The primary leg keeps waiting on a helper proc
	// while the main proc opens a second connection and reissues; the
	// first reply wins and both connections are then abandoned.
	r.M.HedgesSent++
	const rem = replyTimeout - hedgeAfter
	sm := r.Nw.Sm
	box := &hedgeBox{winner: -1, legs: 1}
	r.conn = nil // both legs are single-use from here
	sm.Spawn("client-hedge-wait", func(hp *sim.Proc) {
		hrep, herr := c.await(hp, id, rem)
		box.post(sm, 0, hrep, herr)
	})
	hc, derr := Dial(p, r.Nw, r.Endpoint(), r.Name+"+hedge")
	if derr == nil {
		if hid, herr := hc.issue(p, proto.KQuery, name, arg); herr == nil {
			box.legs = 2
			sm.Spawn("client-hedge-leg", func(hp *sim.Proc) {
				hrep, herr := hc.await(hp, hid, rem)
				box.post(sm, 1, hrep, herr)
			})
		} else {
			hc.Abandon()
			hc = nil
		}
	} else {
		r.M.DialFails++
	}
	for box.winner < 0 && box.posts < box.legs {
		box.wq.Wait(p)
	}
	// Abandoning wakes any still-parked leg; it posts and exits.
	c.Abandon()
	if hc != nil {
		hc.Abandon()
	}
	if box.winner < 0 {
		r.noteBad(p)
		if box.lastErr == nil {
			box.lastErr = ErrUnavailable
		}
		return Reply{}, box.lastErr
	}
	if box.winner == 1 {
		r.M.HedgesWon++
	} else {
		r.M.HedgesLost++
	}
	return box.rep, nil
}
