package tcp

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// grabConn is reached concurrently from roundTrip (plain calls), OpenStream
// (bulk pushes) and tcpStream.Resume. Against a destination that refuses
// connections, some callers dial (and write the failure bookkeeping under the
// per-peer lock) while others sit in the backoff window (and read it to build
// their error): every read of that bookkeeping must happen under the lock.
// Run with -race; the backoff ceiling is tiny so the window keeps expiring and
// dialers and fast-failers interleave for the whole test.
func TestGrabConnBackoffBookkeepingIsRaceFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := transport.Addr(ln.Addr().String())
	ln.Close() // nothing listens here any more: every dial is refused at once

	tr := New(Config{
		DialTimeout: 200 * time.Millisecond, CallTimeout: time.Second,
		RedialBackoff: 50 * time.Microsecond, RedialBackoffMax: 200 * time.Microsecond,
	})
	t.Cleanup(func() { tr.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				var err error
				if g%2 == 0 {
					_, err = tr.Call(ctx, "", dead, "m", echoMsg{})
				} else {
					_, err = tr.OpenStream(ctx, "", dead, "rep.push")
				}
				if err == nil {
					t.Error("call to a refusing destination succeeded")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
