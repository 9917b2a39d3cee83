package botsdk

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
)

// flakyGateway accepts connections, serves identify+echo, and can drop
// the live connection on demand.
type flakyGateway struct {
	ln net.Listener
	t  *testing.T

	mu      sync.Mutex
	current net.Conn
	accepts int
	wg      sync.WaitGroup
}

func newFlakyGateway(t *testing.T) *flakyGateway {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &flakyGateway{ln: ln, t: t}
	g.wg.Add(1)
	go g.acceptLoop()
	t.Cleanup(func() { ln.Close(); g.dropAll(); g.wg.Wait() })
	return g
}

func (g *flakyGateway) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		g.current = conn
		g.accepts++
		g.mu.Unlock()
		g.wg.Add(1)
		go func(conn net.Conn) {
			defer g.wg.Done()
			defer conn.Close()
			dec := json.NewDecoder(conn)
			enc := json.NewEncoder(conn)
			var f gateway.Frame
			if err := dec.Decode(&f); err != nil || f.Op != gateway.OpIdentify {
				return
			}
			enc.Encode(gateway.Frame{Op: gateway.OpReady, BotID: "1", BotName: "flaky", GuildIDs: []string{"9"}})
			for {
				if err := dec.Decode(&f); err != nil {
					return
				}
				if f.Op == gateway.OpRequest {
					enc.Encode(gateway.Frame{Op: gateway.OpResponse, ID: f.ID, OK: true,
						Result: map[string]any{"message_id": "pong"}})
				}
			}
		}(conn)
	}
}

// drop severs the current connection.
func (g *flakyGateway) drop() {
	g.mu.Lock()
	conn := g.current
	g.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (g *flakyGateway) dropAll() { g.drop() }

func (g *flakyGateway) acceptCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.accepts
}

func TestReconnectorHealsAfterDrop(t *testing.T) {
	g := newFlakyGateway(t)
	reconnected := make(chan int, 4)
	r, err := Reconnect(g.ln.Addr().String(), "tok", Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.OnReconnect = func(attempt int) { reconnected <- attempt }

	if _, err := r.Session().Send("9", "before"); err != nil {
		t.Fatal(err)
	}
	g.drop()
	select {
	case <-reconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("no reconnect after drop")
	}
	if r.Reconnects() != 1 {
		t.Errorf("reconnects = %d", r.Reconnects())
	}
	// The healed session serves requests.
	err = r.Do(3, func(s *Session) error {
		_, err := s.Send("9", "after")
		return err
	})
	if err != nil {
		t.Fatalf("post-reconnect send: %v", err)
	}
	if g.acceptCount() < 2 {
		t.Errorf("gateway saw %d connections", g.acceptCount())
	}
}

func TestReconnectorReregistersHandlers(t *testing.T) {
	g := newFlakyGateway(t)
	r, err := Reconnect(g.ln.Addr().String(), "tok", Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := make(chan string, 4)
	r.OnMessage(func(s *Session, m *Message) { seen <- m.Content })

	reconnected := make(chan int, 1)
	r.OnReconnect = func(attempt int) { reconnected <- attempt }
	g.drop()
	select {
	case <-reconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("no reconnect")
	}
	// After healing, the NEW session must still carry the handler: the
	// fresh session's handler table was rebuilt from the registry.
	sess := r.Session()
	sess.mu.Lock()
	n := len(sess.handlers["MESSAGE_CREATE"])
	sess.mu.Unlock()
	if n != 1 {
		t.Errorf("handlers on healed session = %d", n)
	}
}

func TestReconnectorDoRetriesAcrossDrop(t *testing.T) {
	g := newFlakyGateway(t)
	r, err := Reconnect(g.ln.Addr().String(), "tok", Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sess := r.Session()
	g.drop()
	<-sess.Done()
	// Do against the dead session transparently lands on the healed one.
	err = r.Do(3, func(s *Session) error {
		_, err := s.Send("9", "retry me")
		return err
	})
	if err != nil {
		t.Fatalf("Do across drop: %v", err)
	}
}

func TestReconnectorCloseStopsHealing(t *testing.T) {
	g := newFlakyGateway(t)
	r, err := Reconnect(g.ln.Addr().String(), "tok", Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	before := g.acceptCount()
	time.Sleep(150 * time.Millisecond)
	if g.acceptCount() != before {
		t.Error("reconnector kept dialing after Close")
	}
	if err := r.Do(1, func(s *Session) error { return nil }); err == nil {
		// Do on a closed reconnector may still see the last session;
		// acceptable either way as long as no panic. Exercise both paths.
		_ = err
	}
}

// TestReconnectorCloseCutsBackoffShort: Close must not wait out a
// redial backoff, however long MaxBackoff lets it grow.
func TestReconnectorCloseCutsBackoffShort(t *testing.T) {
	g := newFlakyGateway(t)
	r, err := Reconnect(g.ln.Addr().String(), "tok", Options{RequestTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.MaxBackoff = 5 * time.Second
	r.mu.Unlock()
	g.ln.Close()
	g.drop()
	// Backoffs double from 25 ms, so 2 s in the watcher is partway
	// through its 1.6 s wait.
	time.Sleep(2 * time.Second)
	start := time.Now()
	r.Close()
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("Close took %v with the gateway gone, want <= 250ms", d)
	}
}

func TestReconnectorGivesUpNeverButBacksOff(t *testing.T) {
	// Server that dies permanently: the reconnector must keep retrying
	// with backoff without spinning; Close must still terminate it.
	g := newFlakyGateway(t)
	r, err := Reconnect(g.ln.Addr().String(), "tok", Options{RequestTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.ln.Close() // no more accepts
	g.drop()
	time.Sleep(100 * time.Millisecond) // let it retry a few times
	done := make(chan error, 1)
	go func() { done <- r.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while reconnector was retrying")
	}
}
