package tcp

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// A destination that is never called twice at once keeps one connection,
// counted once at each end; a second connection is dialed only when the
// first has a call in flight, here one its handler holds.
func TestPoolDialsASecondConnectionOnlyWhenTheFirstIsBusy(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	handler := func(_ transport.Addr, method string, _ any) (any, error) {
		if method == "block" {
			entered <- struct{}{}
			<-release
		}
		return echoResp{}, nil
	}
	open := func(tr *Transport) uint64 { return tr.WireStats().OpenConns }

	dialer := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ConnsPerPeer: 2})
	t.Cleanup(func() { dialer.Close() })
	server := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second})
	t.Cleanup(func() { server.Close() })
	b, err := server.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	var unblock sync.Once
	t.Cleanup(func() { unblock.Do(func() { close(release) }) }) // runs before the Closes
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := dialer.Call(ctx, "", b, "m", echoMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if n := open(dialer); n != 1 {
		t.Fatalf("dialer OpenConns = %d after 20 sequential calls, want 1", n)
	}
	waitFor(t, "the server to count one accepted connection", func() bool { return open(server) == 1 })

	held := make(chan error, 1)
	go func() {
		_, err := dialer.Call(ctx, "", b, "block", echoMsg{})
		held <- err
	}()
	<-entered
	if _, err := dialer.Call(ctx, "", b, "m", echoMsg{}); err != nil {
		t.Fatal(err)
	}
	if n := open(dialer); n != 2 {
		t.Errorf("dialer OpenConns = %d with the first connection busy, want 2", n)
	}
	waitFor(t, "the server to count the second connection", func() bool { return open(server) == 2 })
	unblock.Do(func() { close(release) })
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}
