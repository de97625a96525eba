package simnet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestMuxDispatch(t *testing.T) {
	m := transport.NewMux()
	m.Handle("a", func(_ transport.Addr, _ string, p any) (any, error) { return fmt.Sprintf("a:%v", p), nil })
	m.Handle("b", func(_ transport.Addr, _ string, p any) (any, error) { return fmt.Sprintf("b:%v", p), nil })

	got, err := m.Dispatch("x", "a", 1)
	if err != nil || got != "a:1" {
		t.Fatalf("dispatch a = %v, %v", got, err)
	}
	got, err = m.Dispatch("x", "b", 2)
	if err != nil || got != "b:2" {
		t.Fatalf("dispatch b = %v, %v", got, err)
	}
}

func TestMuxUnknownMethod(t *testing.T) {
	m := transport.NewMux()
	if _, err := m.Dispatch("x", "nope", nil); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v, want no-handler error", err)
	}
}

func TestMuxReplaceAndRemove(t *testing.T) {
	m := transport.NewMux()
	m.Handle("a", func(_ transport.Addr, _ string, _ any) (any, error) { return 1, nil })
	m.Handle("a", func(_ transport.Addr, _ string, _ any) (any, error) { return 2, nil })
	got, _ := m.Dispatch("x", "a", nil)
	if got != 2 {
		t.Fatalf("replacement not effective: %v", got)
	}
	m.Handle("a", nil)
	if _, err := m.Dispatch("x", "a", nil); err == nil {
		t.Fatal("removed handler still dispatches")
	}
}

func TestMuxOverNetwork(t *testing.T) {
	n := New(Config{DeadCallDelay: time.Millisecond, Seed: 1})
	m := transport.NewMux()
	m.Handle("ring.ping", func(_ transport.Addr, _ string, _ any) (any, error) { return "pong", nil })
	m.Handle("ds.insert", func(_ transport.Addr, _ string, p any) (any, error) { return p, nil })
	if err := n.Register("peer", m.Dispatch); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("client", func(transport.Addr, string, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got, err := n.Call(ctx, "client", "peer", "ring.ping", nil); err != nil || got != "pong" {
		t.Fatalf("ping via mux = %v, %v", got, err)
	}
	if got, err := n.Call(ctx, "client", "peer", "ds.insert", 42); err != nil || got != 42 {
		t.Fatalf("insert via mux = %v, %v", got, err)
	}
}

func TestMuxConcurrent(t *testing.T) {
	m := transport.NewMux()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			for i := 0; i < 200; i++ {
				m.Handle(name, func(_ transport.Addr, _ string, _ any) (any, error) { return g, nil })
				if got, err := m.Dispatch("x", name, nil); err != nil || got != g {
					t.Errorf("dispatch %s = %v, %v", name, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
