// Package hw models the paper's test machine: a dual-socket Xeon E5-2620
// v4 (Broadwell) with 8 physical cores and 20 MB LLC per socket, SMT-2
// ("hyper-threading"), DDR4 memory channels, a QPI inter-socket link, and
// turbo frequency scaling.
//
// Simulated database workers charge work to the machine in three
// currencies:
//
//   - instructions, executed on a logical core (Exec) — subject to SMT
//     sibling interference and turbo frequency;
//   - memory touches (TouchSeq / TouchRandom) — filtered
//     through the socket's simulated LLC; misses consume DRAM and QPI
//     bandwidth and convert to stall time, amortized by the access
//     pattern's memory-level parallelism;
//   - I/O, which lives in package iodev and is charged separately.
package hw

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Spec describes a machine: the model's parameter table. The zero value
// is not usable; every server runs PaperSpec.
type Spec struct {
	Sockets       int
	PhysPerSocket int
	SMT           int // logical threads per physical core

	NominalGHz float64
	TurboGHz   float64

	LLC cache.Config // per socket

	DRAMGBps float64 // achievable per-socket DRAM bandwidth
	QPIGBps  float64 // inter-socket link bandwidth

	// Microarchitectural cost model.
	BaseCPI       float64 // cycles per instruction with no LLC misses
	LLCMissNs     float64 // local memory latency per LLC miss
	RemoteExtraNs float64 // additional latency for a remote-socket miss

	// SMT interference: when both hyperthreads of a physical core are
	// busy, each runs at share = HTShareBase + HTShareStall*stallFraction
	// of the core's single-thread issue rate, and its CPI is inflated by
	// HTCPIPenalty (private-cache pressure). Stall-heavy workloads
	// overlap well (combined throughput up to ~1.7x); compute-bound ones
	// are a net LOSS (2 x 0.50 / 1.15 ≈ 0.87x) — the paper's finding
	// that hyper-threading degrades in-memory analytical workloads.
	HTShareBase  float64
	HTShareStall float64
	HTCPIPenalty float64
}

// PaperSpec returns the paper's Lenovo ThinkStation P710 configuration.
// DRAM bandwidth: the paper notes only one third of the channels are
// populated, so achievable bandwidth is well under the 68.3 GB/s peak.
func PaperSpec() Spec {
	return Spec{
		Sockets:       2,
		PhysPerSocket: 8,
		SMT:           2,
		NominalGHz:    2.1,
		TurboGHz:      3.0,
		LLC:           cache.PaperLLC(),
		DRAMGBps:      20.0,
		QPIGBps:       32.0,
		BaseCPI:       0.70,
		LLCMissNs:     85,
		RemoteExtraNs: 60,
		HTShareBase:   0.50,
		HTShareStall:  0.38,
		HTCPIPenalty:  1.15,
	}
}

// LogicalCores returns the number of logical cores.
func (s Spec) LogicalCores() int { return s.Sockets * s.PhysPerSocket * s.SMT }

// PhysCores returns the number of physical cores.
func (s Spec) PhysCores() int { return s.Sockets * s.PhysPerSocket }

// Core is one logical core.
type Core struct {
	ID     int
	Socket int
	Phys   int // global physical core index
	Thread int // SMT thread index on the physical core

	slot *sim.Resource // one runnable worker at a time (an SQLOS scheduler)
}

// Machine is a simulated machine instance bound to one simulation.
type Machine struct {
	Spec Spec
	Ctr  *metrics.Counters

	sm    *sim.Sim
	cores []*Core

	physBusy     []int // running bursts per physical core
	socketActive []int // physical cores with >=1 busy thread, per socket

	llcs []*cache.LLC
	dram []*sim.FluidServer
	qpi  *sim.FluidServer

	remoteFrac float64 // fraction of misses homed on the remote socket

	nextRegion uint64
}

// New creates a machine on the given simulation.
func New(sm *sim.Sim, spec Spec, ctr *metrics.Counters) *Machine {
	m := &Machine{
		Spec:         spec,
		Ctr:          ctr,
		sm:           sm,
		physBusy:     make([]int, spec.PhysCores()),
		socketActive: make([]int, spec.Sockets),
		qpi:          sim.NewFluidServer(spec.QPIGBps * 1e9),
		nextRegion:   1 << 30,
	}
	for i := 0; i < spec.Sockets; i++ {
		m.llcs = append(m.llcs, cache.New(spec.LLC))
		m.dram = append(m.dram, sim.NewFluidServer(spec.DRAMGBps*1e9))
	}
	for id := 0; id < spec.LogicalCores(); id++ {
		sock, phys, thr := m.Locate(id)
		m.cores = append(m.cores, &Core{
			ID:     id,
			Socket: sock,
			Phys:   sock*spec.PhysPerSocket + phys,
			Thread: thr,
			slot:   sim.NewResource(1),
		})
	}
	return m
}

// Locate maps a logical core ID to (socket, physical-core-in-socket,
// thread). IDs follow the paper's allocation order: 0–7 are socket 0's
// first hyperthreads, 8–15 socket 1's, 16–31 are the second hyperthreads
// in the same order — so "the first n cores" reproduces the paper's
// allocation policy for every n.
func (m *Machine) Locate(id int) (socket, phys, thread int) {
	perThread := m.Spec.PhysCores()
	thread = id / perThread
	rem := id % perThread
	socket = rem / m.Spec.PhysPerSocket
	phys = rem % m.Spec.PhysPerSocket
	return
}

// Core returns the logical core with the given ID.
func (m *Machine) Core(id int) *Core { return m.cores[id] }

// LLC returns the given socket's cache (for CAT mask programming).
func (m *Machine) LLC(socket int) *cache.LLC { return m.llcs[socket] }

// SetCATMask programs the same CAT way mask on every socket, as the paper
// does (allocations divided equally between sockets).
func (m *Machine) SetCATMask(mask uint64) {
	for _, c := range m.llcs {
		c.SetWayMask(mask)
	}
}

// CATMaskForMB returns the contiguous low mask whose total allocation
// across sockets is totalMB (e.g. 4 MB => 2 ways => mask 0b11 on each of
// 2 sockets with 1 MB ways).
func (m *Machine) CATMaskForMB(totalMB int) uint64 {
	wayMB := m.llcs[0].WayBytes() >> 20
	perSocket := int64(totalMB) / int64(m.Spec.Sockets) / wayMB
	if perSocket < 1 {
		perSocket = 1
	}
	if perSocket > int64(m.Spec.LLC.Ways) {
		perSocket = int64(m.Spec.LLC.Ways)
	}
	return (uint64(1) << uint(perSocket)) - 1
}

// SetRemoteFraction sets the fraction of LLC misses served by the remote
// socket. The engine sets 0 when all allocated cores are on one socket
// (memory is allocated locally) and 0.5 when the allocation spans sockets
// (interleaved allocation).
func (m *Machine) SetRemoteFraction(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	m.remoteFrac = f
}

// ReserveRegion allocates a synthetic physical address range of the given
// nominal size, used to give tables and indexes distinct cache identities.
func (m *Machine) ReserveRegion(bytes int64) uint64 {
	base := m.nextRegion
	sz := uint64(bytes)
	const align = 1 << 20
	sz = (sz + align - 1) / align * align
	m.nextRegion += sz + align
	return base
}

// freq returns the current effective frequency in GHz for a socket, using
// a linear turbo droop from TurboGHz (one active core) to NominalGHz (all
// physical cores active).
func (m *Machine) freq(socket int) float64 {
	active := m.socketActive[socket]
	if active < 1 {
		active = 1
	}
	n := m.Spec.PhysPerSocket
	if n <= 1 {
		return m.Spec.TurboGHz
	}
	frac := float64(active-1) / float64(n-1)
	return m.Spec.TurboGHz - (m.Spec.TurboGHz-m.Spec.NominalGHz)*frac
}

// Exec runs a CPU burst of instr instructions with stallNs of memory
// stall time on the given logical core, blocking p for the burst's
// duration (including any wait for the core's run slot). stallNs should
// come from the Touch methods' returned stall estimates.
func (m *Machine) Exec(p *sim.Proc, coreID int, instr int64, stallNs float64) {
	if instr <= 0 && stallNs <= 0 {
		return
	}
	core := m.cores[coreID]
	wait := core.slot.Acquire(p)
	metrics.ChargeWait(p, m.Ctr, metrics.WaitCPU, wait)

	// hw.exec times the bookkeeping on both sides of the burst, never parked time.
	mark := m.sm.ProfStart(sim.ProfHWExec)

	siblingBusy := m.physBusy[core.Phys] > 0
	m.physBusy[core.Phys]++
	if m.physBusy[core.Phys] == 1 {
		m.socketActive[core.Socket]++
	}

	freq := m.freq(core.Socket)
	cpi := m.Spec.BaseCPI
	share := 1.0
	if siblingBusy {
		total := float64(instr)*cpi/freq + stallNs
		stallFrac := 0.0
		if total > 0 {
			stallFrac = stallNs / total
		}
		share = m.Spec.HTShareBase + m.Spec.HTShareStall*stallFrac
		cpi *= m.Spec.HTCPIPenalty
	}
	instrNs := float64(instr) * cpi / (freq * share)
	dur := sim.Duration(instrNs + stallNs)

	cycles := int64(float64(instr)*cpi + stallNs*freq)
	m.Ctr.Instructions += instr
	m.Ctr.Cycles += cycles
	if s := metrics.StmtOf(p); s != nil {
		s.Instructions += instr
		s.Cycles += cycles
	}

	m.sm.ProfStop(sim.ProfHWExec, mark)
	p.Sleep(dur)
	mark = mark.Restart()

	m.physBusy[core.Phys]--
	if m.physBusy[core.Phys] == 0 {
		m.socketActive[core.Socket]--
	}
	core.slot.Release(p.Sim())
	m.sm.ProfStop(sim.ProfHWExec, mark)
}

// RunQueueDepth returns the number of procs parked waiting for any
// logical core's run slot — the scheduler's instantaneous run-queue
// depth, summed across cores.
func (m *Machine) RunQueueDepth() int {
	n := 0
	for _, c := range m.cores {
		n += c.slot.Waiting()
	}
	return n
}

// BusyCores returns the number of logical cores currently executing a
// burst; with LogicalCores it yields instantaneous core occupancy.
func (m *Machine) BusyCores() int {
	n := 0
	for _, b := range m.physBusy {
		n += b
	}
	return n
}

// LogicalCores returns the machine's logical core count.
func (m *Machine) LogicalCores() int { return len(m.cores) }

// chargeMisses converts cache stats into DRAM/QPI traffic and stall time.
// mlp is the access pattern's memory-level parallelism (overlapping
// in-flight misses): sequential scans sustain high MLP, dependent pointer
// chases ~1.
func (m *Machine) chargeMisses(socket int, st cache.Stats, mlp float64) float64 {
	mark := m.sm.ProfStart(sim.ProfCharge)
	if mlp < 1 {
		mlp = 1
	}
	readBytes := st.Misses * cache.LineBytes
	writeBytes := st.Writebacks * cache.LineBytes
	m.Ctr.LLCAccesses += st.Accesses
	m.Ctr.LLCMisses += st.Misses
	m.Ctr.DRAMReadBytes += readBytes
	m.Ctr.DRAMWriteBytes += writeBytes

	now := m.sm.Now()
	total := float64(readBytes + writeBytes)
	// Bandwidth queueing: the reservation beyond this batch's own transfer
	// time is time spent behind other traffic.
	own := sim.Duration(0)
	if m.dram[socket].Rate() > 0 {
		own = sim.Duration(total / m.dram[socket].Rate() * float64(sim.Second))
	}
	qd := m.dram[socket].Reserve(now, total)
	queueNs := float64(qd - own)
	if queueNs < 0 {
		queueNs = 0
	}

	remoteBytes := total * m.remoteFrac
	if remoteBytes > 0 {
		m.Ctr.QPIBytes += int64(remoteBytes)
		qq := m.qpi.Reserve(now, remoteBytes)
		qown := sim.Duration(remoteBytes / m.qpi.Rate() * float64(sim.Second))
		extra := float64(qq - qown)
		if extra > 0 {
			queueNs += extra
		}
	}

	lat := m.Spec.LLCMissNs + m.remoteFrac*m.Spec.RemoteExtraNs
	m.sm.ProfStop(sim.ProfCharge, mark)
	return float64(st.Misses)*lat/mlp + queueNs
}

// TouchSeq charges a sequential touch of bytes at base through the
// socket's LLC, returning the stall time in ns to fold into Exec.
func (m *Machine) TouchSeq(coreID int, base uint64, bytes int64, write bool, mlp float64) float64 {
	core := m.cores[coreID]
	mark := m.sm.ProfStart(sim.ProfCache)
	st := m.llcs[core.Socket].Sequential(base, bytes, write)
	m.sm.ProfStop(sim.ProfCache, mark)
	return m.chargeMisses(core.Socket, st, mlp)
}

// TouchRandom charges count randomly-positioned accesses over a region.
// posFn returns positions in [0,1); pass rng.Float64 for uniform access
// or a Zipf-backed function for skewed access.
func (m *Machine) TouchRandom(coreID int, base uint64, regionBytes, count int64, write bool, mlp float64, posFn func() float64) float64 {
	core := m.cores[coreID]
	mark := m.sm.ProfStart(sim.ProfCache)
	st := m.llcs[core.Socket].Random(base, regionBytes, count, write, posFn)
	m.sm.ProfStop(sim.ProfCache, mark)
	return m.chargeMisses(core.Socket, st, mlp)
}

// String summarizes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%d sockets x %d cores x SMT-%d @ %.1f-%.1f GHz, %d MB LLC/socket, %.0f GB/s DRAM/socket",
		m.Spec.Sockets, m.Spec.PhysPerSocket, m.Spec.SMT,
		m.Spec.NominalGHz, m.Spec.TurboGHz,
		m.Spec.LLC.SizeBytes>>20, m.Spec.DRAMGBps)
}
