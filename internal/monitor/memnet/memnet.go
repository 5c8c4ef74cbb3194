// Package memnet is an in-memory network for in-process HTTP tests.
// A Network maps host names to listeners, a connection is one net.Pipe,
// and no kernel port is involved, so one test can never take another's
// address: a host is free exactly when no open listener holds it, and a
// dial to a free host is refused at once.
package memnet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
)

// backlog is how many dialed connections wait for Accept before a
// further dial is refused, as a full listen queue refuses a SYN; an
// http.Server accepts in a loop, so a test never comes near it.
const backlog = 128

// Network is a set of named in-memory listeners.  The zero value is not
// usable; call New.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener
	fresh     int // hosts handed out by Listen("")
}

// New returns an empty network.
func New() *Network {
	return &Network{listeners: make(map[string]*listener)}
}

// addr is a memnet address: the host name a listener holds.  Its
// String is the bare host, so "http://" + ln.Addr().String() is the
// listener's base URL.
type addr string

func (addr) Network() string  { return "memnet" }
func (a addr) String() string { return string(a) }

// Listen opens a listener on host, which must not hold an open listener
// already.  An empty host picks a fresh name, as port 0 picks a port.
// Closing the listener frees the host for the next Listen.
func (n *Network) Listen(host string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if host == "" {
		n.fresh++
		host = "host" + strconv.Itoa(n.fresh) + ".memnet"
	}
	if _, busy := n.listeners[host]; busy {
		return nil, &net.OpError{Op: "listen", Net: "memnet", Addr: addr(host), Err: syscall.EADDRINUSE}
	}
	l := &listener{net: n, addr: addr(host), conns: make(chan net.Conn, backlog), done: make(chan struct{})}
	n.listeners[host] = l
	return l, nil
}

// Dial connects to the listener on address's host; a port, as in the
// "host:80" an http.Transport dials, is ignored.  The connection is
// queued for Accept and returned at once, as the kernel completes a
// handshake before the server accepts, so Dial never blocks and has no
// use for the context.  A host without an open listener refuses with
// ECONNREFUSED.
func (n *Network) Dial(_ context.Context, _, address string) (net.Conn, error) {
	host := address
	if h, _, err := net.SplitHostPort(address); err == nil {
		host = h
	}
	n.mu.Lock()
	l := n.listeners[host]
	n.mu.Unlock()
	if l == nil {
		return nil, refused(host)
	}
	return l.connect()
}

// Client returns an HTTP client whose connections are dialed on n.  It
// has no proxy and no timeout; each call has its own connection pool.
func (n *Network) Client() *http.Client {
	return &http.Client{Transport: &http.Transport{DialContext: n.Dial}}
}

func refused(host string) error {
	return &net.OpError{Op: "dial", Net: "memnet", Addr: addr(host), Err: syscall.ECONNREFUSED}
}

// listener is one host's accept queue.  mu orders connect against
// Close, so no connection is queued after the queue has been drained.
type listener struct {
	net   *Network
	addr  addr
	conns chan net.Conn // server ends waiting for Accept
	done  chan struct{} // closed by Close

	mu     sync.Mutex
	closed bool
}

func (l *listener) connect() (net.Conn, error) {
	client, server := net.Pipe()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		select {
		case l.conns <- server:
			return client, nil
		default:
		}
	}
	client.Close()
	server.Close()
	return nil, refused(string(l.addr))
}

// Accept waits for the next dialed connection.  Once the listener is
// closed it returns net.ErrClosed, also for connections still queued.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		select {
		case <-l.done:
			c.Close()
		default:
			return c, nil
		}
	case <-l.done:
	}
	return nil, &net.OpError{Op: "accept", Net: "memnet", Addr: l.addr, Err: net.ErrClosed}
}

// Close frees the host at once: later dials are refused, connections
// not yet accepted are closed, and Accept returns.  Accepted
// connections stay open, as they do on a socket.
func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("memnet: close %s: %w", l.addr, net.ErrClosed)
	}
	l.closed = true
	close(l.done)
	l.mu.Unlock()

	l.net.mu.Lock()
	if l.net.listeners[string(l.addr)] == l {
		delete(l.net.listeners, string(l.addr))
	}
	l.net.mu.Unlock()
	for {
		select {
		case c := <-l.conns:
			c.Close()
		default:
			return nil
		}
	}
}

// Addr returns the host the listener holds.
func (l *listener) Addr() net.Addr { return l.addr }
