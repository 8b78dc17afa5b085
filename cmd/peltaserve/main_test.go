package main

import (
	"context"
	"net/http"
	"testing"
)

// TestServerTimeoutsAndDrain pins the listener fix: the server bounds all
// four connection phases, and a cancelled context (the signal path) drains
// it to a clean nil exit instead of killing the process.
func TestServerTimeoutsAndDrain(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded connection phase: header %v read %v write %v idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := serveUntil(ctx, srv); err != nil {
		t.Fatalf("drain after cancel: %v, want a clean exit", err)
	}
}
