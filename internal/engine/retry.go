package engine

import "repro/internal/sim"

// Driver-level retries of failed statements and transactions
// (Config.Retry): up to retryAttempts attempts including the first, with
// exponential backoff from retryBase to a retryMax cap, all on the sim
// clock so retry timing is deterministic.
const (
	retryAttempts = 4
	retryBase     = sim.Millisecond
	retryMax      = 100 * sim.Millisecond
)

// backoff blocks p for the backoff preceding retry number attempt (1 = the
// first retry). The delay doubles per attempt up to retryMax, then a
// uniform jitter in [d/2, d] spreads retriers so they do not stampede in
// sync.
func backoff(p *sim.Proc, g *sim.RNG, attempt int) {
	d := min(retryBase<<(attempt-1), retryMax)
	half := d / 2
	p.Sleep(half + sim.Duration(g.Int64n(int64(half)+1)))
}
