package fl

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// Conn is the server's handle to one federated client.
type Conn interface {
	// Update performs one round-trip: broadcast weights, receive the local
	// update.
	Update(req UpdateRequest) (UpdateResponse, error)
	// ID identifies the remote client.
	ID() string
	Close() error
}

// localConn attaches an in-process client (the common simulation path).
type localConn struct {
	c Client
}

// Local wraps a client for in-process federation.
func Local(c Client) Conn { return &localConn{c: c} }

// Update implements Conn.
func (l *localConn) Update(req UpdateRequest) (UpdateResponse, error) { return l.c.Update(req) }

// ID implements Conn.
func (l *localConn) ID() string { return l.c.ID() }

// Close implements Conn.
func (l *localConn) Close() error { return nil }

// ServeClient exposes a client on a listener. It handles connections
// sequentially (one FL server talks to each client) until the listener is
// closed, then returns net.ErrClosed.
func ServeClient(lis net.Listener, c Client) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		if err := serveConn(conn, c); err != nil && !errors.Is(err, net.ErrClosed) {
			// Connection-level failure: keep serving future connections.
			continue
		}
	}
}

// serveConn answers request frames until the connection fails or a frame
// cannot be read whole. A whole frame that is not a valid request gets an
// error frame back, and the connection stays up.
func serveConn(conn net.Conn, c Client) error {
	defer conn.Close()
	var buf []byte
	for {
		body, err := readFrame(conn, buf)
		buf = body
		if err != nil {
			return err
		}
		m, err := parseFrame(body)
		var out message
		switch {
		case err != nil:
			out = message{kind: frameError, err: err.Error()}
		case m.kind != frameRequest:
			out = message{kind: frameError, err: "missing request"}
		default:
			resp, err := c.Update(m.req)
			out = message{kind: frameResponse, resp: resp}
			if err != nil {
				out = message{kind: frameError, err: err.Error()}
			}
		}
		if buf, err = appendFrame(buf[:0], &out); err != nil {
			if buf, err = appendFrame(buf[:0], &message{kind: frameError, err: err.Error()}); err != nil {
				return err
			}
		}
		if _, err := conn.Write(buf); err != nil {
			return err
		}
	}
}

// tcpConn is the server-side handle to a TCP client. One buffer carries
// every frame it sends and receives.
type tcpConn struct {
	mu   sync.Mutex
	id   string
	conn net.Conn
	buf  []byte
	// broken is the read failure that closed the connection: once a frame
	// could not be read whole, the stream has lost its frame boundaries.
	broken error
}

// Dial connects to a client served by ServeClient.
func Dial(addr, id string) (Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: dialing client %s at %s: %w", id, addr, err)
	}
	return &tcpConn{id: id, conn: conn}, nil
}

// Update implements Conn. A reply that is not a whole, valid response frame
// is an error — a *FrameError for malformed bytes, a *RemoteError for the
// client's own error frame — which the round engine counts as that client
// dropping out of the round.
func (t *tcpConn) Update(req UpdateRequest) (UpdateResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.broken != nil {
		return UpdateResponse{}, fmt.Errorf("fl: connection to %s closed after %w", t.id, t.broken)
	}
	var err error
	if t.buf, err = appendFrame(t.buf[:0], &message{kind: frameRequest, req: req}); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: encoding round %d for %s: %w", req.Round, t.id, err)
	}
	if _, err := t.conn.Write(t.buf); err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: sending round %d to %s: %w", req.Round, t.id, err)
	}
	body, err := readFrame(t.conn, t.buf)
	t.buf = body
	if err != nil {
		t.broken = err
		t.conn.Close()
		return UpdateResponse{}, fmt.Errorf("fl: receiving update from %s: %w", t.id, err)
	}
	m, err := parseFrame(body)
	if err != nil {
		return UpdateResponse{}, fmt.Errorf("fl: receiving update from %s: %w", t.id, err)
	}
	switch m.kind {
	case frameResponse:
		return m.resp, nil
	case frameError:
		return UpdateResponse{}, &RemoteError{Client: t.id, Msg: m.err}
	}
	return UpdateResponse{}, fmt.Errorf("fl: receiving update from %s: %w", t.id,
		frameFault(faultKind, "kind %d where a response was expected", m.kind))
}

// ID implements Conn.
func (t *tcpConn) ID() string { return t.id }

// Close implements Conn.
func (t *tcpConn) Close() error { return t.conn.Close() }
