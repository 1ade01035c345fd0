package nic

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// outQ is an NI's outgoing hardware FIFO and its inject engine, a
// driven process that drains the FIFO into the network in order,
// waiting for window credit as the fabric requires.
type outQ struct {
	msgs        sim.FIFO[*network.Msg]
	work, space sim.Cond // a message was queued; one was sent
	net         *network.Injector
	step        func()
}

// newOutQ starts d's inject engine, named name.
func newOutQ(d Deps, name string) *outQ {
	q := &outQ{}
	q.step = q.inject
	q.net = d.Net.Injector(d.Eng.Drive(name, q.step), func() { q.msgs.Pop(); q.space.Signal(); q.inject() })
	return q
}

// push queues m and wakes the engine.
func (q *outQ) push(m *network.Msg) {
	q.msgs.Push(m)
	q.work.Signal()
}

// inject is the engine's step: it sends queued messages until one
// waits for the fabric (the Injector's then callback retires it and
// steps again) or the FIFO is empty.
func (q *outQ) inject() {
	for q.msgs.Len() > 0 && q.net.Inject(q.msgs.Peek()) {
		q.msgs.Pop()
		q.space.Signal()
	}
	if q.msgs.Len() == 0 {
		q.work.Await(q.net.Process(), q.step)
	}
}
