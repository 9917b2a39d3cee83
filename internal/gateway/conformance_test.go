package gateway_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// The wire conformance suite drives the gateway's error paths over raw
// TCP, with no SDK in between, and pins each reply frame field for
// field together with what then happens to the connection.

// wireWorld is a platform with one guild and one installed bot, served
// by a gateway.
type wireWorld struct {
	srv *gateway.Server
	bot *platform.User
}

func newWireWorld(t *testing.T) *wireWorld {
	t.Helper()
	p := platform.New(platform.Options{})
	t.Cleanup(p.Close)
	owner := p.CreateUser("owner")
	g, err := p.CreateGuild(owner.ID, "wire", false)
	if err != nil {
		t.Fatal(err)
	}
	bot, err := p.RegisterBot(owner.ID, "wirebot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel); err != nil {
		t.Fatal(err)
	}
	srv, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &wireWorld{srv: srv, bot: bot}
}

// wireConn is a raw client connection that reads one JSON frame per
// line.
type wireConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func (w *wireWorld) dial(t *testing.T) *wireConn {
	t.Helper()
	conn := dialRaw(t, w.srv.Addr())
	return &wireConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// identified dials and identifies as the bot, consuming the ready frame.
func (w *wireWorld) identified(t *testing.T) *wireConn {
	t.Helper()
	c := w.dial(t)
	c.send(fmt.Sprintf(`{"op":"identify","token":%q}`, w.bot.Token))
	if f := c.read(); f["op"] != "ready" {
		t.Fatalf("first frame = %v, want ready", f)
	}
	return c
}

func (c *wireConn) send(line string) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, line+"\n"); err != nil {
		c.t.Fatalf("write %s: %v", line, err)
	}
}

// read returns the next frame as generic JSON, so unexpected fields
// show up in comparisons.
func (c *wireConn) read() map[string]any {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("no reply frame: %v", err)
	}
	var f map[string]any
	if err := json.Unmarshal(line, &f); err != nil {
		c.t.Fatalf("reply %q is not JSON: %v", line, err)
	}
	return f
}

// expect reads the next frame and requires it to equal want exactly.
func (c *wireConn) expect(want map[string]any) {
	c.t.Helper()
	if got := c.read(); !reflect.DeepEqual(got, want) {
		c.t.Fatalf("reply = %v, want %v", got, want)
	}
}

// expectClosed requires the server to close the connection without
// sending anything further.
func (c *wireConn) expectClosed() {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := c.br.ReadBytes('\n')
	if !errors.Is(err, io.EOF) || len(line) > 0 {
		c.t.Fatalf("connection still open: read %q, %v", line, err)
	}
}

// expectOpen requires the session to still answer heartbeats.
func (c *wireConn) expectOpen() {
	c.t.Helper()
	c.send(`{"op":"heartbeat","seq":7}`)
	c.expect(map[string]any{"op": "heartbeat_ack", "seq": 7.0})
}

// retryAfter removes retry_after_ms from a frame and returns it.
func retryAfter(t *testing.T, f map[string]any) float64 {
	t.Helper()
	v, ok := f["retry_after_ms"].(float64)
	if !ok {
		t.Fatalf("frame %v carries no retry_after_ms", f)
	}
	delete(f, "retry_after_ms")
	return v
}

func TestWireConformance(t *testing.T) {
	t.Run("malformed first frame", func(t *testing.T) {
		c := newWireWorld(t).dial(t)
		c.send(`{"op":}`)
		c.expectClosed()
	})
	t.Run("malformed frame after identify", func(t *testing.T) {
		c := newWireWorld(t).identified(t)
		c.send(`{"op":}`)
		c.expectClosed()
	})
	t.Run("first frame is not identify", func(t *testing.T) {
		c := newWireWorld(t).dial(t)
		c.send(`{"op":"heartbeat","seq":1}`)
		c.expect(map[string]any{"op": "error", "error": "expected identify"})
		c.expectClosed()
	})
	t.Run("bad token", func(t *testing.T) {
		c := newWireWorld(t).dial(t)
		c.send(`{"op":"identify","token":"not-a-token"}`)
		c.expect(map[string]any{"op": "error", "error": "invalid token"})
		c.expectClosed()
	})
	t.Run("unknown op", func(t *testing.T) {
		c := newWireWorld(t).identified(t)
		c.send(`{"op":"mystery"}`)
		c.expect(map[string]any{"op": "error", "error": "unexpected op mystery"})
		c.expectOpen()
	})
	t.Run("unknown method", func(t *testing.T) {
		c := newWireWorld(t).identified(t)
		c.send(`{"op":"request","id":3,"method":"no_such_method"}`)
		c.expect(map[string]any{"op": "response", "id": 3.0, "error": "gateway: unknown method no_such_method"})
		c.expectOpen()
	})
	t.Run("max_sessions shed", func(t *testing.T) {
		w := newWireWorld(t)
		w.srv.SetLimits(gateway.Limits{MaxSessions: 1})
		w.identified(t).expectOpen()
		c := w.dial(t)
		f := c.read()
		if ms := retryAfter(t, f); ms <= 0 {
			t.Errorf("retry_after_ms = %v, want > 0", ms)
		}
		if want := map[string]any{"op": "error", "error": gateway.ErrShedding}; !reflect.DeepEqual(f, want) {
			t.Fatalf("reply = %v, want %v plus retry_after_ms", f, want)
		}
		c.expectClosed()
	})
	t.Run("throttled request", func(t *testing.T) {
		w := newWireWorld(t)
		w.srv.SetRateLimit(0.001, 1)
		c := w.identified(t)
		c.send(fmt.Sprintf(`{"op":"request","id":1,"method":%q}`, gateway.MethodGuilds))
		if f := c.read(); f["op"] != "response" || f["ok"] != true {
			t.Fatalf("first request = %v, want an ok response", f)
		}
		c.send(fmt.Sprintf(`{"op":"request","id":2,"method":%q}`, gateway.MethodGuilds))
		f := c.read()
		if ms := retryAfter(t, f); ms < 1 {
			t.Errorf("retry_after_ms = %v, want >= 1", ms)
		}
		if want := map[string]any{"op": "response", "id": 2.0, "error": gateway.ErrRateLimited}; !reflect.DeepEqual(f, want) {
			t.Fatalf("reply = %v, want %v plus retry_after_ms", f, want)
		}
		c.expectOpen()
	})
}
