package sim

import "math"

// RNG is a deterministic random number generator with helpers for the
// distributions used by the workload generators and hardware models. It
// is a xoshiro256** generator: seeding and forking are O(1), which
// matters because the executor forks a stream per worker context.
// Because the simulation kernel serializes proc execution, draw order —
// and therefore every simulated outcome — is reproducible for a given
// seed.
type RNG struct {
	s [4]uint64
}

// splitmix64 expands a seed into stream state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG creates a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	x := uint64(seed)
	for i := range g.s {
		g.s[i] = splitmix64(&x)
	}
	return g
}

// Uint64 returns the next 64 random bits (xoshiro256**).
func (g *RNG) Uint64() uint64 {
	s := &g.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Fork derives an independent generator whose stream is a deterministic
// function of the parent's state. Use it to give subsystems their own
// streams so that adding draws in one subsystem does not perturb another.
func (g *RNG) Fork() *RNG {
	return NewRNG(int64(g.Uint64()))
}

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return int64(g.Uint64() >> 1) }

// Intn returns an integer in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return int(g.Int64n(int64(n))) }

// Int64n returns an int64 in [0, n). n must be > 0.
func (g *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int64n with non-positive n")
	}
	return int64(g.Uint64() % uint64(n))
}

// Float64 returns a float in [0, 1).
func (g *RNG) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	u := g.Float64()
	if u <= 0 {
		u = 1e-18
	}
	return -math.Log(1-u) * mean
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.Float64() < p }

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (g *RNG) Perm(n int) []int {
	out := make([]int, n)
	for i := 1; i < n; i++ {
		j := g.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew theta in
// (0, 1); theta near 1 is highly skewed. It uses the standard inverse-CDF
// approximation used by YCSB-style generators.
type Zipf struct {
	n      int64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	zeta2  float64
	halfPw float64
}

// NewZipf builds a Zipf generator over n items with skew theta.
func NewZipf(n int64, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.halfPw = 1 + math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	// For large n use the integral approximation to keep construction O(1).
	if n <= 10000 {
		sum := 0.0
		for i := int64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	head := zeta(10000, theta)
	// Integral of x^-theta from 10000 to n.
	tail := (math.Pow(float64(n), 1-theta) - math.Pow(10000, 1-theta)) / (1 - theta)
	return head + tail
}

// Next draws the next value in [0, n).
func (z *Zipf) Next(g *RNG) int64 {
	u := g.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPw {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v < 0 {
		v = 0
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
