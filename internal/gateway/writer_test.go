package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/permissions"
	"repro/internal/platform"
)

// countingListener hands out connections whose writes it counts and,
// while stall is write-locked, holds before they reach the socket.
type countingListener struct {
	net.Listener
	stall   sync.RWMutex
	waiting atomic.Int64 // writes parked on stall
	writes  atomic.Int64
	bytes   atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.l.waiting.Add(1)
	c.l.stall.RLock()
	defer c.l.stall.RUnlock()
	c.l.waiting.Add(-1)
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterBatchesQueuedFrames stalls a session's socket while 200
// dispatches and one response queue up behind a frame in flight, then
// releases it. The writer must drain the backlog in a few large writes,
// keep each queue in order, put the response ahead of the dispatches
// it was queued with, and count exactly the frames the client decoded.
func TestWriterBatchesQueuedFrames(t *testing.T) {
	p := platform.New(platform.Options{})
	defer p.Close()
	owner := p.CreateUser("owner")
	g, err := p.CreateGuild(owner.ID, "batch", false)
	if err != nil {
		t.Fatal(err)
	}
	var channel platform.ID
	for id := range g.Channels {
		channel = id
	}
	bot, err := p.RegisterBot(owner.ID, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: raw}
	srv := newServer(p, ln)
	defer srv.Close()
	srv.SetLimits(Limits{SendQueue: 256})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"op":"identify","token":%q}`+"\n", bot.Token)
	// Room for every frame the test provokes, so the reader never
	// blocks on the test.
	frames := make(chan Frame, 512)
	go func() {
		defer close(frames)
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var f Frame
			if err := json.Unmarshal(line, &f); err != nil {
				t.Errorf("undecodable frame %q: %v", line, err)
				return
			}
			frames <- f
		}
	}()
	if f := <-frames; f.Op != OpReady {
		t.Fatalf("first frame = %+v, want ready", f)
	}
	var sess *session
	srv.mu.Lock()
	for s := range srv.sessions {
		sess = s
	}
	srv.mu.Unlock()

	// Park the writer inside a write of message 0.
	ln.stall.Lock()
	writes0, bytes0 := ln.writes.Load(), ln.bytes.Load()
	send := func(n int) {
		if _, err := p.SendMessage(owner.ID, channel, "m"+strconv.Itoa(n)); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	waitFor(t, "the writer to block", func() bool { return ln.waiting.Load() == 1 })
	const n = 200
	for i := 1; i <= n; i++ {
		send(i)
	}
	waitFor(t, "the dispatches to queue", func() bool { return len(sess.events) == n })
	fmt.Fprintf(conn, `{"op":"request","id":1,"method":%q}`+"\n", MethodGuilds)
	waitFor(t, "the response to queue", func() bool { return len(sess.control) == 1 })
	ln.stall.Unlock()

	var got []Frame
	for len(got) < n+2 {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("connection closed after %d frames", len(got))
			}
			got = append(got, f)
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d frames", len(got), n+2)
		}
	}
	var order []string
	for _, f := range got {
		switch f.Op {
		case OpDispatch:
			order = append(order, f.Event.Message.Content)
		case OpResponse:
			order = append(order, "response")
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	want := []string{"m0", "response"}
	for i := 1; i <= n; i++ {
		want = append(want, "m"+strconv.Itoa(i))
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("frame order = %v\nwant %v", order, want)
	}

	writes, bytes := ln.writes.Load()-writes0, ln.bytes.Load()-bytes0
	t.Logf("%d frames, %d bytes, %d writes", n+2, bytes, writes)
	// One write per flushAt bytes, plus message 0's write and a final
	// partial flush.
	if limit := (bytes+flushAt-1)/flushAt + 2; writes > limit {
		t.Errorf("%d frames (%d bytes) took %d writes, want <= %d", n+2, bytes, writes, limit)
	}
	decoded := int64(1 + len(got)) // ready + everything since
	waitFor(t, "frames_sent to settle", func() bool { return sess.sent.Load() >= decoded })
	if sent := sess.sent.Load(); sent != decoded {
		t.Errorf("frames_sent = %d, client decoded %d", sent, decoded)
	}
}
