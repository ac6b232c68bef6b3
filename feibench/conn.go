package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eefei/internal/fldgram"
)

// dgramCounters is the method flnet's coordinator type-asserts its conns
// against to meter datagram attempts. A wrapper that hides it silently
// zeroes the attempt counters of every round, so wrappers forward it
// whenever the wrapped conn has it.
type dgramCounters interface {
	DgramCounters() (txAttemptBytes, txDeliveredBytes, peerAttemptBytes, rxDeliveredBytes int64)
}

// coordConn wraps the coordinator's end of one edge connection: every Read
// and Write becomes a span parented to the round in flight, and the bytes
// moved while a round is in flight are counted. The round is read before
// the call: a datagram Write returns only once its last fragment is
// acknowledged, possibly after the round has moved on.
type coordConn struct {
	net.Conn
	tr     *tracer
	tx, rx atomic.Int64
}

func (c *coordConn) Write(p []byte) (int, error) {
	inRound := c.tr.round.Load() >= 0
	id := c.tr.begin("flnet.conn.write", c.tr.parent())
	n, err := c.Conn.Write(p)
	c.tr.end(id)
	if inRound {
		c.tx.Add(int64(n))
	}
	return n, err
}

func (c *coordConn) Read(p []byte) (int, error) {
	inRound := c.tr.round.Load() >= 0
	id := c.tr.begin("flnet.conn.read", c.tr.parent())
	n, err := c.Conn.Read(p)
	c.tr.end(id)
	if inRound {
		c.rx.Add(int64(n))
	}
	return n, err
}

// meteredCoordConn is a coordConn over a datagram conn.
type meteredCoordConn struct {
	*coordConn
	m dgramCounters
}

func (c meteredCoordConn) DgramCounters() (int64, int64, int64, int64) {
	return c.m.DgramCounters()
}

// wrapCoordConn wraps c, keeping its datagram metering visible.
func wrapCoordConn(c net.Conn, tr *tracer) (net.Conn, *coordConn) {
	w := &coordConn{Conn: c, tr: tr}
	if m, ok := c.(dgramCounters); ok {
		return meteredCoordConn{w, m}, w
	}
	return w, w
}

// edgeConn wraps an edge's connection. Its Write records the edge's compute
// span — from the end of the last Read before the Write (the request fully
// read) to the Write (the reply encoded) — and the Write itself.
type edgeConn struct {
	net.Conn
	tr       *tracer
	lastRead atomic.Int64 // tracer clock; -1 before the first Read
}

func (c *edgeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead.Store(c.tr.now())
	return n, err
}

func (c *edgeConn) Write(p []byte) (int, error) {
	parent := c.tr.parent()
	start := c.tr.now()
	if lr := c.lastRead.Load(); lr >= 0 && parent >= 0 {
		c.tr.add("flnet.edge.compute", parent, lr, start)
	}
	id := c.tr.begin("flnet.edge.write", parent)
	n, err := c.Conn.Write(p)
	c.tr.end(id)
	return n, err
}

// meteredEdgeConn is an edgeConn over a datagram conn.
type meteredEdgeConn struct {
	*edgeConn
	m dgramCounters
}

func (c meteredEdgeConn) DgramCounters() (int64, int64, int64, int64) {
	return c.m.DgramCounters()
}

func wrapEdgeConn(c net.Conn, tr *tracer) net.Conn {
	w := &edgeConn{Conn: c, tr: tr}
	w.lastRead.Store(-1)
	if m, ok := c.(dgramCounters); ok {
		return meteredEdgeConn{w, m}
	}
	return w
}

// connSet collects the coordinator-side wrappers and the datagram conns of
// both ends of a traced cluster.
type connSet struct {
	mu    sync.Mutex
	coord []*coordConn
	dgram []*fldgram.Conn
}

func (s *connSet) addDgram(c net.Conn) {
	if d, ok := c.(*fldgram.Conn); ok {
		s.mu.Lock()
		s.dgram = append(s.dgram, d)
		s.mu.Unlock()
	}
}

// dgramStats sums the packet accounting of every datagram conn.
func (s *connSet) dgramStats() fldgram.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t fldgram.Stats
	for _, c := range s.dgram {
		st := c.Stats()
		t.TxAttempts += st.TxAttempts
		t.TxDelivered += st.TxDelivered
		t.RxDupPackets += st.RxDupPackets
		t.RxInvalidPackets += st.RxInvalidPackets
	}
	return t
}

// coordBytes sums the bytes the coordinator wrote and read during rounds.
func (s *connSet) coordBytes() (tx, rx int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.coord {
		tx += c.tx.Load()
		rx += c.rx.Load()
	}
	return tx, rx
}

// tracedListener wraps every accepted conn with wrapCoordConn.
type tracedListener struct {
	net.Listener
	tr    *tracer
	conns *connSet
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.addDgram(c)
	w, base := wrapCoordConn(c, l.tr)
	l.conns.mu.Lock()
	l.conns.coord = append(l.conns.coord, base)
	l.conns.mu.Unlock()
	return w, nil
}

// tracedDial wraps an edge dialer (nil = TCP) with wrapEdgeConn.
func tracedDial(dial func(string, time.Duration) (net.Conn, error), tr *tracer, conns *connSet) func(string, time.Duration) (net.Conn, error) {
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		conns.addDgram(c)
		return wrapEdgeConn(c, tr), nil
	}
}
