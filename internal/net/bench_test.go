package net

import (
	"testing"

	"repro/internal/sim"
)

// echoPair listens on a fresh network and spawns a server that echoes
// every frame back on the one connection it accepts, until it closes.
func echoPair() (*sim.Sim, *Network) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	l, err := nw.Listen("echo")
	if err != nil {
		panic(err) // fresh network, first listener
	}
	sm.Spawn("echo", func(p *sim.Proc) {
		c, err := l.Accept(p)
		for err == nil {
			var f []byte
			if f, err = c.Recv(p); err == nil {
				err = c.Send(p, f)
			}
		}
	})
	return sm, nw
}

// BenchmarkSendRecv is one 64-byte frame sent to an echo server and
// received back on an established connection: two link charges, two
// latencies and two inbox deliveries.
func BenchmarkSendRecv(b *testing.B) {
	sm, nw := echoPair()
	sm.Spawn("caller", func(p *sim.Proc) {
		c, err := nw.Dial(p, "echo")
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		frame := make([]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := c.Send(p, frame); err != nil {
				b.Error(err)
				return
			}
			if _, err := c.Recv(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sm.Run(sim.Forever)
}
