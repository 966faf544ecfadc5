package main

import (
	"encoding/binary"
	"net"
	"sync/atomic"
)

// frameCounter follows the wire protocol's framing (a 4-byte big-endian
// payload length, then the payload) through a byte stream and counts
// completed frames.
type frameCounter struct {
	hdr  [4]byte
	nhdr int
	left int
	body bool
}

func (f *frameCounter) feed(p []byte) (done int64) {
	for len(p) > 0 {
		if !f.body {
			n := copy(f.hdr[f.nhdr:], p)
			f.nhdr += n
			p = p[n:]
			if f.nhdr < 4 {
				continue
			}
			f.nhdr, f.body = 0, true
			f.left = int(binary.BigEndian.Uint32(f.hdr[:]))
		}
		n := min(f.left, len(p))
		f.left -= n
		p = p[n:]
		if f.left == 0 {
			f.body = false
			done++
		}
	}
	return done
}

// reqSlot names the client span a connection's next request belongs to,
// so the server-side span can point at it; span -1 means "not sampled".
type reqSlot struct {
	span atomic.Int32
	req  atomic.Int64
}

// countingListener wraps the listener handed to server.Serve. Its
// connections count bytes and frames in both directions while counting
// is on and, when a tracer is set, record a "server.handle" span from
// the read that brings a request to the write that completes its
// response.
type countingListener struct {
	net.Listener
	on       atomic.Bool
	tr       atomic.Pointer[tracer]
	accepted chan *countingConn

	bytesIn, bytesOut, framesIn, framesOut atomic.Int64
}

// newCountingListener wraps l; conns is the number of connections the
// benchmark will dial, so Accept never blocks handing them over.
func newCountingListener(l net.Listener, conns int) *countingListener {
	return &countingListener{Listener: l, accepted: make(chan *countingConn, conns)}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, l: l, open: -1}
	select {
	case l.accepted <- cc:
	default: // a connection the benchmark did not dial: count it, trace nothing
	}
	return cc, nil
}

type countingConn struct {
	net.Conn
	l       *countingListener
	slot    atomic.Pointer[reqSlot]
	in, out frameCounter
	open    int32 // server span in progress; touched only by the server's goroutine
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.on.Load() {
		c.l.bytesIn.Add(int64(n))
		c.l.framesIn.Add(c.in.feed(p[:n]))
		if tr := c.l.tr.Load(); tr != nil && c.open < 0 {
			if s := c.slot.Load(); s != nil {
				if parent := s.span.Load(); parent >= 0 {
					c.open = tr.begin("server.handle", "server", parent, s.req.Load())
				}
			}
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.l.on.Load() {
		return c.Conn.Write(p)
	}
	tr := c.l.tr.Load()
	var at int64
	if tr != nil {
		at = tr.now()
	}
	done := c.out.feed(p)
	n, err := c.Conn.Write(p)
	c.l.bytesOut.Add(int64(n))
	c.l.framesOut.Add(done)
	if done > 0 && c.open >= 0 {
		// The span ends when the response is handed to the socket, which
		// is before the client can see it.
		tr.finishAt(c.open, at)
		c.open = -1
	}
	return n, err
}
