package memnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
)

func TestDialWithoutListenerIsRefused(t *testing.T) {
	n := New()
	for _, addr := range []string{"nobody", "nobody:80"} {
		if _, err := n.Dial(context.Background(), "tcp", addr); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Errorf("Dial(%q) = %v, want ECONNREFUSED", addr, err)
		}
	}
}

// TestCloseFreesHost: a closed listener refuses dials at once and its
// host can be listened on again; a second Listen on an open host fails.
func TestCloseFreesHost(t *testing.T) {
	n := New()
	ln, err := n.Listen("recv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("recv"); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("second Listen on an open host = %v, want EADDRINUSE", err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("second Close = %v, want net.ErrClosed", err)
	}
	if _, err := n.Dial(context.Background(), "tcp", "recv:80"); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("Dial after Close = %v, want ECONNREFUSED", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after Close = %v, want net.ErrClosed", err)
	}
	again, err := n.Listen("recv")
	if err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
	defer again.Close()
	if _, err := n.Dial(context.Background(), "tcp", "recv:80"); err != nil {
		t.Fatalf("Dial the reopened host: %v", err)
	}
}

// TestCloseDropsQueuedConns: a connection dialed but never accepted is
// closed with its listener, so the dialer reads EOF instead of hanging.
func TestCloseDropsQueuedConns(t *testing.T) {
	n := New()
	ln, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("Read on a queued conn after Close = %v, want EOF", err)
	}
}

func TestFreshHostsAreDistinct(t *testing.T) {
	n := New()
	a, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Addr().String() == b.Addr().String() {
		t.Errorf("two fresh listeners share host %q", a.Addr())
	}
	if a.Addr().Network() != "memnet" {
		t.Errorf("Addr().Network() = %q, want memnet", a.Addr().Network())
	}
}

// TestClientRoundTrip serves HTTP on a memnet host: a POST body reaches
// the handler and the answer comes back, twice over one connection.
func TestClientRoundTrip(t *testing.T) {
	n := New()
	ln, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int32
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			_, _ = io.WriteString(w, r.Method+" "+r.URL.Path+" "+string(body))
		}),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		},
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	client := n.Client()
	for i := 0; i < 2; i++ {
		resp, err := client.Post("http://"+ln.Addr().String()+"/ingest", "text/plain", strings.NewReader("hello"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "POST /ingest hello" {
			t.Errorf("round trip %d = %q, want %q", i, got, "POST /ingest hello")
		}
	}
	srv.Close()
	if got := conns.Load(); got != 1 {
		t.Errorf("two sequential requests opened %d connections, want 1", got)
	}
}
