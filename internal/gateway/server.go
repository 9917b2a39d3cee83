package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/platform"
)

// Server accepts bot connections and bridges them to the platform.
type Server struct {
	p  *platform.Platform
	ln net.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
	seenBots map[platform.ID]bool // for distinguishing reconnects
	closed   bool
	wg       sync.WaitGroup

	intercept func(bot *platform.User, method string, args map[string]any) error
	faults    FaultPolicy

	// traffic plane (admission, backpressure, liveness)
	limits      Limits
	admitted    int // connections holding an admission slot (incl. handshakes)
	identBucket bucket
	tenants     map[platform.ID]*bucket
	tenantIdent map[platform.ID]*bucket

	// per-session rate limiting (zero = disabled)
	rateRPS   float64
	rateBurst float64

	// observability
	metrics atomic.Pointer[serverMetrics]
	journal *journal.Journal

	// Logf receives connection-level diagnostics; defaults to a no-op.
	Logf func(format string, args ...any)
}

// serverMetrics is the server's counter set. SetObs replaces it whole
// while sessions may be running, so the server publishes it through an
// atomic pointer and every use loads the current set.
type serverMetrics struct {
	cConnections *obs.Counter
	cReconnects  *obs.Counter
	cEventsOut   *obs.Counter
	cRequests    *obs.Counter
	cShed        *obs.Counter
	cShedBy      map[string]*obs.Counter
	cDropped     *obs.Counter
	cSubDropped  *obs.Counter
	cReaped      *obs.Counter
	cSlowClosed  *obs.Counter
	cThrottled   *obs.Counter
	cTenantThrot *obs.Counter
	gSessions    *obs.Gauge
}

// SetObs points the server's metrics at a registry; by default they go
// to the process-wide one. Call it before bots connect: a session
// already running keeps its sessions-gauge entry in the old registry.
func (s *Server) SetObs(r *obs.Registry) {
	reg := obs.Or(r)
	m := &serverMetrics{
		cConnections: reg.Counter("gateway_connections_total"),
		cReconnects:  reg.Counter("gateway_reconnects_total"),
		cEventsOut:   reg.Counter("gateway_events_out_total"),
		cRequests:    reg.Counter("gateway_requests_total"),
		cShed:        reg.Counter("gateway_sessions_shed_total"),
		cShedBy:      make(map[string]*obs.Counter, len(ShedReasons)),
		cDropped:     reg.Counter("gateway_events_dropped_total"),
		cSubDropped:  reg.Counter("gateway_sub_events_dropped_total"),
		cReaped:      reg.Counter("gateway_sessions_reaped_total"),
		cSlowClosed:  reg.Counter("gateway_slow_consumer_disconnects_total"),
		cThrottled:   reg.Counter("gateway_requests_throttled_total"),
		cTenantThrot: reg.Counter("gateway_tenant_throttled_total"),
		gSessions:    reg.Gauge("gateway_sessions"),
	}
	for _, reason := range ShedReasons {
		m.cShedBy[reason] = reg.Counter("gateway_sessions_shed_" + reason + "_total")
	}
	s.metrics.Store(m)
}

// SetJournal attaches an event journal: session lifecycle
// (session_opened/session_closed), shedding (session_shed), slow-consumer
// losses (events_dropped), and every bot request denied for missing
// permissions (permission_denied) are recorded. A nil journal disables
// emission.
func (s *Server) SetJournal(j *journal.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

func (s *Server) getJournal() *journal.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}

// ShedReasons enumerates every reason the gateway refuses a connection
// with a shedding frame, in the order reports render them. Each has a
// dedicated counter (gateway_sessions_shed_<reason>_total) alongside the
// aggregate gateway_sessions_shed_total, so shed accounting can be
// reconciled per cause.
var ShedReasons = []string{"max_sessions", "identify_rate", "tenant_rate"}

// FaultPolicy lets a chaos harness interfere with the event stream:
// for each outbound event frame destined for a bot it may order the
// frame dropped or the whole session disconnected. Implementations
// must be safe for concurrent use. The interface is structural so the
// fault injector can satisfy it without the gateway importing it.
type FaultPolicy interface {
	EventFault(bot string) (drop, disconnect bool)
}

// SetFaultPolicy installs (or, with nil, removes) a fault policy
// consulted for every dispatched event frame.
func (s *Server) SetFaultPolicy(p FaultPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = p
}

func (s *Server) getFaults() FaultPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// SetRateLimit enables per-session request throttling, like Discord's
// REST rate limits: bots may issue rps sustained requests per second
// with the given burst. Throttled requests receive a response whose
// error is ErrRateLimited and whose RetryAfterMS suggests a backoff.
func (s *Server) SetRateLimit(rps float64, burst int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rateRPS = rps
	s.rateBurst = float64(burst)
	if s.rateBurst <= 0 {
		s.rateBurst = 5
	}
}

// SetLimits installs the traffic-plane configuration: admission caps,
// identify throttling, per-tenant rate limits, bounded send queues with
// a slow-consumer policy, write deadlines, and heartbeat liveness.
// Call it before bots connect; already-established sessions keep the
// limits they were admitted under.
func (s *Server) SetLimits(l Limits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limits = l.withDefaults()
}

// Limits reports the active traffic-plane configuration.
func (s *Server) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limits
}

// SetInterceptor installs a runtime policy hook consulted before every
// bot request. A non-nil error denies the request with that message.
// Discord ships no such enforcer (the paper's central observation);
// Slack/MS Teams-style platforms do — internal/enforcer implements one
// so the two models can be compared.
func (s *Server) SetInterceptor(f func(bot *platform.User, method string, args map[string]any) error) {
	s.mu.Lock()
	s.intercept = f
	s.mu.Unlock()
}

func (s *Server) interceptor() func(bot *platform.User, method string, args map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intercept
}

// NewServer starts a gateway listening on addr (use "127.0.0.1:0" for an
// ephemeral port).
func NewServer(p *platform.Platform, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	return newServer(p, ln), nil
}

// newServer starts a gateway serving connections accepted from ln.
func newServer(p *platform.Platform, ln net.Listener) *Server {
	s := &Server{
		p:           p,
		ln:          ln,
		sessions:    make(map[*session]struct{}),
		seenBots:    make(map[platform.ID]bool),
		tenants:     make(map[platform.ID]*bucket),
		tenantIdent: make(map[platform.ID]*bucket),
		limits:      Limits{}.withDefaults(),
		Logf:        func(string, ...any) {},
	}
	s.SetObs(nil)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address, e.g. to hand to bot clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and tears down every session.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sess := range sessions {
		sess.closeWith("server_closed")
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// admit reserves an admission slot for a fresh connection, applying the
// session cap and the identify-rate throttle. On refusal it returns the
// shed reason and a backoff hint for the client.
func (s *Server) admit() (limits Limits, reason string, retryAfter time.Duration, ok bool) {
	s.mu.Lock()
	limits = s.limits
	if s.closed {
		s.mu.Unlock()
		return limits, "server_closed", 0, false
	}
	if limits.MaxSessions > 0 && s.admitted >= limits.MaxSessions {
		s.mu.Unlock()
		return limits, "max_sessions", 250 * time.Millisecond, false
	}
	s.admitted++
	s.mu.Unlock()
	if wait, limited := s.identBucket.take(limits.IdentifyRPS, float64(limits.IdentifyBurst)); limited {
		s.releaseAdmit()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		return limits, "identify_rate", wait, false
	}
	return limits, "", 0, true
}

func (s *Server) releaseAdmit() {
	s.mu.Lock()
	s.admitted--
	s.mu.Unlock()
}

// shed refuses a connection with an explicit shedding frame so clients
// can distinguish overload (back off and retry) from rejection.
func (s *Server) shed(conn net.Conn, enc *json.Encoder, reason string, retryAfter, writeTimeout time.Duration) {
	m := s.metrics.Load()
	m.cShed.Inc()
	if c, ok := m.cShedBy[reason]; ok {
		c.Inc()
	}
	s.getJournal().Emit(journal.Event{
		Kind:      journal.KindSessionShed,
		Component: "gateway",
		Fields: map[string]any{
			"reason":         reason,
			"remote":         conn.RemoteAddr().String(),
			"retry_after_ms": retryAfter.Milliseconds(),
		},
	})
	writeFrame(conn, enc, Frame{
		Op: OpError, Err: ErrShedding, RetryAfterMS: retryAfter.Milliseconds(),
	}, writeTimeout)
}

// tenantBucket returns the shared rate bucket for a bot owner.
func (s *Server) tenantBucket(owner platform.ID) *bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.tenants[owner]
	if !ok {
		b = &bucket{}
		s.tenants[owner] = b
	}
	return b
}

// tenantIdentBucket returns the per-owner identify throttle bucket,
// distinct from the request-path tenant bucket so reconnect storms and
// request floods are limited (and accounted) independently.
func (s *Server) tenantIdentBucket(owner platform.ID) *bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.tenantIdent[owner]
	if !ok {
		b = &bucket{}
		s.tenantIdent[owner] = b
	}
	return b
}

// writeFrame encodes one frame straight onto the connection under a
// write deadline. Pre-session handshake errors and shed refusals use
// it; established sessions write through their writer goroutine, which
// batches frames under one deadline per flush.
func writeFrame(conn net.Conn, enc *json.Encoder, f Frame, timeout time.Duration) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return enc.Encode(f)
}

// session is one authenticated bot connection. A dedicated writer
// goroutine owns the socket's write side; everything else enqueues into
// one of two bounded channels — control (ready frames, responses, acks;
// enqueue blocks with a deadline) and events (dispatch frames; the
// slow-consumer policy decides what a full queue means).
type session struct {
	srv  *Server
	conn net.Conn
	bot  *platform.User
	sub  *platform.Subscription

	limits  Limits
	control chan Frame
	events  chan Frame
	done    chan struct{}

	lastRecv atomic.Int64 // unix nanos of the last frame read
	sent     atomic.Int64 // frames flushed to the socket
	dropped  atomic.Int64 // dispatch frames evicted by drop-oldest

	rate bucket

	closeOnce   sync.Once
	reasonMu    sync.Mutex
	closeReason string
}

var errSessionClosed = errors.New("gateway: session closed")

// closeWith tears the session down once, remembering why for the
// session_closed journal event.
func (sess *session) closeWith(reason string) {
	sess.closeOnce.Do(func() {
		sess.reasonMu.Lock()
		sess.closeReason = reason
		sess.reasonMu.Unlock()
		close(sess.done)
		sess.conn.Close()
	})
}

func (sess *session) reason() string {
	sess.reasonMu.Lock()
	defer sess.reasonMu.Unlock()
	if sess.closeReason == "" {
		return "peer_closed"
	}
	return sess.closeReason
}

// A write buffer's size, and the buffered byte count at which a writer
// stops draining its session's queues and flushes.
const (
	writeBufSize = 32 << 10
	flushAt      = 16 << 10
)

// frameBuf is a write buffer and the frame encoder that fills it.
// Session writers borrow one per wake-up instead of owning one, so an
// idle session holds no buffer and a new session allocates none.
type frameBuf struct {
	w   *bufio.Writer
	enc *json.Encoder
}

var frameBufs = sync.Pool{New: func() any {
	b := &frameBuf{w: bufio.NewWriterSize(nil, writeBufSize)}
	b.enc = json.NewEncoder(b.w)
	return b
}}

// writeLoop is the session's single socket writer. Each wake-up it
// blocks for one frame, then writes it and every frame already queued
// behind it with one flush. Every pick prefers control frames over
// event frames, so a flood of dispatches can never starve a response
// or heartbeat ack.
func (sess *session) writeLoop() {
	for {
		var f Frame
		var event bool
		select {
		case f = <-sess.control:
		default:
			select {
			case f = <-sess.control:
			case f = <-sess.events:
				event = true
			case <-sess.done:
				return
			}
		}
		if !sess.writeBatch(f, event) {
			return
		}
	}
}

// writeBatch encodes f, then queued frames until both queues are empty
// or flushAt bytes are buffered, and flushes them under one write
// deadline. Only flushed frames are counted as sent. A failed write
// closes the session and reports false.
func (sess *session) writeBatch(f Frame, event bool) bool {
	b := frameBufs.Get().(*frameBuf)
	b.w.Reset(sess.conn)
	timeout := sess.limits.WriteTimeout
	if timeout > 0 {
		sess.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	var frames, events int64
	for {
		// On error b is not returned to the pool: its encoder keeps
		// the error.
		if err := b.enc.Encode(f); err != nil {
			sess.closeWith("write_error")
			return false
		}
		frames++
		if event {
			events++
		}
		if b.w.Buffered() >= flushAt {
			break
		}
		var ok bool
		if f, event, ok = sess.queued(); !ok {
			break
		}
	}
	if err := b.w.Flush(); err != nil {
		sess.closeWith("write_error")
		return false
	}
	b.w.Reset(nil)
	frameBufs.Put(b)
	if timeout > 0 {
		sess.conn.SetWriteDeadline(time.Time{})
	}
	sess.sent.Add(frames)
	if events > 0 {
		sess.srv.metrics.Load().cEventsOut.Add(events)
	}
	return true
}

// queued takes the next already-queued frame without blocking, control
// before events; ok is false when both queues are empty.
func (sess *session) queued() (f Frame, event, ok bool) {
	select {
	case f = <-sess.control:
		return f, false, true
	default:
	}
	select {
	case f = <-sess.events:
		return f, true, true
	default:
		return Frame{}, false, false
	}
}

// send enqueues a control frame (ready, response, ack, error), blocking
// up to the write timeout. A session that cannot absorb its own control
// traffic within the deadline is disconnected.
func (sess *session) send(f Frame) error {
	select {
	case sess.control <- f:
		return nil
	case <-sess.done:
		return errSessionClosed
	default:
	}
	t := time.NewTimer(sess.limits.WriteTimeout)
	defer t.Stop()
	select {
	case sess.control <- f:
		return nil
	case <-sess.done:
		return errSessionClosed
	case <-t.C:
		sess.srv.metrics.Load().cSlowClosed.Inc()
		sess.closeWith("slow_consumer")
		return errSessionClosed
	}
}

// sendEvent enqueues a dispatch frame under the slow-consumer policy.
func (sess *session) sendEvent(f Frame) error {
	select {
	case sess.events <- f:
		return nil
	case <-sess.done:
		return errSessionClosed
	default:
	}
	switch sess.limits.SlowConsumer {
	case SlowDropOldest:
		for {
			select {
			case sess.events <- f:
				return nil
			case <-sess.done:
				return errSessionClosed
			default:
			}
			// Evict the oldest queued dispatch to make room; the events
			// channel only ever carries dispatch frames, so control
			// traffic can never be a casualty.
			select {
			case <-sess.events:
				sess.noteDropped(1)
			default:
			}
		}
	case SlowDisconnect:
		sess.srv.metrics.Load().cSlowClosed.Inc()
		sess.closeWith("slow_consumer")
		return errSessionClosed
	default: // SlowBlock
		t := time.NewTimer(sess.limits.WriteTimeout)
		defer t.Stop()
		select {
		case sess.events <- f:
			return nil
		case <-sess.done:
			return errSessionClosed
		case <-t.C:
			sess.srv.metrics.Load().cSlowClosed.Inc()
			sess.closeWith("slow_consumer")
			return errSessionClosed
		}
	}
}

func (sess *session) noteDropped(n int64) {
	sess.dropped.Add(n)
	sess.srv.metrics.Load().cDropped.Add(n)
}

// reapLoop enforces server-side heartbeat liveness: a session that goes
// silent past the heartbeat timeout is disconnected, freeing its
// admission slot for a live client.
func (sess *session) reapLoop(timeout time.Duration) {
	tick := timeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-sess.done:
			return
		case <-t.C:
			last := time.Unix(0, sess.lastRecv.Load())
			if time.Since(last) > timeout {
				sess.srv.metrics.Load().cReaped.Inc()
				sess.closeWith("heartbeat_timeout")
				return
			}
		}
	}
}

// throttled applies the per-session token bucket; it returns the
// suggested backoff when the request must be rejected.
func (s *Server) throttled(sess *session) (time.Duration, bool) {
	s.mu.Lock()
	rps, burst := s.rateRPS, s.rateBurst
	s.mu.Unlock()
	return sess.rate.take(rps, burst)
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))

	limits, reason, retryAfter, ok := s.admit()
	if !ok {
		if reason != "server_closed" {
			s.shed(conn, enc, reason, retryAfter, limits.WriteTimeout)
		}
		return
	}
	defer s.releaseAdmit()

	// First frame must identify within a deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hello Frame
	if err := dec.Decode(&hello); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hello.Op != OpIdentify {
		writeFrame(conn, enc, Frame{Op: OpError, Err: "expected identify"}, limits.WriteTimeout)
		return
	}
	bot, err := s.p.BotByToken(hello.Token)
	if err != nil {
		writeFrame(conn, enc, Frame{Op: OpError, Err: "invalid token"}, limits.WriteTimeout)
		return
	}
	if limits.TenantIdentifyRPS > 0 {
		tb := s.tenantIdentBucket(bot.OwnerID)
		if wait, limited := tb.take(limits.TenantIdentifyRPS, float64(limits.TenantIdentifyBurst)); limited {
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			s.shed(conn, enc, "tenant_rate", wait, limits.WriteTimeout)
			return
		}
	}

	sess := &session{
		srv:     s,
		conn:    conn,
		bot:     bot,
		limits:  limits,
		control: make(chan Frame, 32),
		events:  make(chan Frame, limits.SendQueue),
		done:    make(chan struct{}),
	}
	sess.lastRecv.Store(time.Now().UnixNano())
	// Deliver only events in guilds this bot belongs to, and not the
	// bot's own messages (Discord bots receive their own messages, but
	// our honeypot bots never need the echo; suppressing it avoids
	// self-trigger loops).
	sess.sub = s.p.Subscribe(256, func(e platform.Event) bool {
		if e.Type == platform.EventMessageCreate && e.UserID == bot.ID {
			return false
		}
		// Interactions are addressed to one bot; other bots in the
		// guild never see them.
		if e.Type == platform.EventInteractionCreate {
			return e.Interaction != nil && e.Interaction.BotID == bot.ID
		}
		return s.p.IsMember(e.GuildID, bot.ID)
	})
	// Upstream backpressure accounting: the platform bus drops events
	// for subscribers whose buffer is full (a pump stalled by SlowBlock);
	// surface those losses on the same counter family.
	sess.sub.SetDropHook(func(int) { s.metrics.Load().cSubDropped.Inc() })
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.p.Unsubscribe(sess.sub)
		return
	}
	s.sessions[sess] = struct{}{}
	// The set is loaded once here so the session's +1 and -1 on the
	// sessions gauge land in the same registry even if SetObs swaps it
	// in between.
	m := s.metrics.Load()
	m.cConnections.Inc()
	if s.seenBots[bot.ID] {
		m.cReconnects.Inc()
	}
	s.seenBots[bot.ID] = true
	m.gSessions.Add(1)
	nSessions := len(s.sessions)
	s.mu.Unlock()
	s.getJournal().Emit(journal.Event{
		Kind:      journal.KindSessionOpened,
		Component: "gateway",
		Bot:       bot.Name,
		Fields: map[string]any{
			"bot_account_id": bot.ID.String(),
			"remote":         conn.RemoteAddr().String(),
			"sessions":       nSessions,
		},
	})
	defer func() {
		sess.closeWith("peer_closed")
		s.mu.Lock()
		delete(s.sessions, sess)
		m.gSessions.Add(-1)
		s.mu.Unlock()
		s.p.Unsubscribe(sess.sub)
		if d := sess.dropped.Load(); d > 0 {
			s.getJournal().Emit(journal.Event{
				Kind:      journal.KindEventsDropped,
				Component: "gateway",
				Bot:       bot.Name,
				Fields: map[string]any{
					"dropped": d,
					"policy":  sess.limits.SlowConsumer.String(),
				},
			})
		}
		s.getJournal().Emit(journal.Event{
			Kind:      journal.KindSessionClosed,
			Component: "gateway",
			Bot:       bot.Name,
			Fields: map[string]any{
				"reason":         sess.reason(),
				"frames_sent":    sess.sent.Load(),
				"events_dropped": sess.dropped.Load(),
				"sub_dropped":    sess.sub.Dropped(),
			},
		})
	}()

	go sess.writeLoop()
	if limits.HeartbeatTimeout > 0 {
		go sess.reapLoop(limits.HeartbeatTimeout)
	}

	var guilds []string
	for _, gid := range s.p.GuildsOf(bot.ID) {
		guilds = append(guilds, gid.String())
	}
	if err := sess.send(Frame{Op: OpReady, BotID: bot.ID.String(), BotName: bot.Name, GuildIDs: guilds}); err != nil {
		return
	}

	// Pump events from the platform subscription into the session's
	// bounded queue. The policy-governed enqueue means a stalled client
	// can never wedge this goroutine for longer than the write timeout.
	go func() {
		for {
			select {
			case e, ok := <-sess.sub.C:
				if !ok {
					return
				}
				if fp := s.getFaults(); fp != nil {
					drop, disconnect := fp.EventFault(bot.Name)
					if disconnect {
						sess.closeWith("fault_disconnect")
						return
					}
					if drop {
						continue
					}
				}
				f := Frame{Op: OpDispatch, Type: string(e.Type), Event: encodeEvent(s.p, e)}
				if err := sess.sendEvent(f); err != nil {
					return
				}
			case <-sess.done:
				return
			}
		}
	}()

	tenant := s.tenantBucket(bot.OwnerID)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		sess.lastRecv.Store(time.Now().UnixNano())
		switch f.Op {
		case OpHeartbeat:
			if err := sess.send(Frame{Op: OpHeartbeatAck, Seq: f.Seq}); err != nil {
				return
			}
		case OpRequest:
			s.metrics.Load().cRequests.Inc()
			wait, limited := s.throttled(sess)
			if !limited {
				var tWait time.Duration
				if tWait, limited = tenant.take(limits.TenantRPS, float64(limits.TenantBurst)); limited {
					s.metrics.Load().cTenantThrot.Inc()
					wait = tWait
				}
			}
			if limited {
				s.metrics.Load().cThrottled.Inc()
				resp := Frame{Op: OpResponse, ID: f.ID, Err: ErrRateLimited,
					RetryAfterMS: int64(wait / time.Millisecond)}
				if resp.RetryAfterMS < 1 {
					resp.RetryAfterMS = 1
				}
				if err := sess.send(resp); err != nil {
					return
				}
				continue
			}
			resp := s.handleRequest(bot, f)
			if err := sess.send(resp); err != nil {
				return
			}
		default:
			sess.send(Frame{Op: OpError, Err: "unexpected op " + string(f.Op)})
		}
	}
}

func argString(args map[string]any, key string) string {
	v, _ := args[key].(string)
	return v
}

func argID(args map[string]any, key string) platform.ID {
	id, err := platform.ParseID(argString(args, key))
	if err != nil {
		return platform.Nil
	}
	return id
}

func argInt(args map[string]any, key string) int {
	switch v := args[key].(type) {
	case float64:
		return int(v)
	case string:
		id, _ := platform.ParseID(v)
		return int(id)
	default:
		return 0
	}
}

// handleRequest executes one REST-style method as the authenticated bot.
// Crucially, the platform checks only the BOT's permissions here — there
// is no notion of "the user who asked the bot to do this", which is the
// Discord design gap the paper studies.
func (s *Server) handleRequest(bot *platform.User, f Frame) Frame {
	resp := Frame{Op: OpResponse, ID: f.ID}
	fail := func(err error) Frame {
		if errors.Is(err, platform.ErrPermissionDenied) {
			s.getJournal().Emit(journal.Event{
				Kind:      journal.KindPermissionDenied,
				Component: "gateway",
				Bot:       bot.Name,
				Fields:    map[string]any{"method": f.Method, "bot_account_id": bot.ID.String()},
			})
		}
		resp.OK = false
		resp.Err = err.Error()
		return resp
	}
	ok := func(result map[string]any) Frame {
		resp.OK = true
		resp.Result = result
		return resp
	}

	if hook := s.interceptor(); hook != nil {
		if err := hook(bot, f.Method, f.Args); err != nil {
			// Runtime-policy denials (the enforcer) are permission
			// denials too, just decided by the interceptor rather than
			// the platform's static permission set.
			s.getJournal().Emit(journal.Event{
				Kind:      journal.KindPermissionDenied,
				Component: "gateway",
				Bot:       bot.Name,
				Fields:    map[string]any{"method": f.Method, "policy": err.Error()},
			})
			return fail(err)
		}
	}

	switch f.Method {
	case MethodSendMessage:
		var atts []platform.Attachment
		if raw, found := f.Args["attachments"]; found {
			blob, _ := json.Marshal(raw)
			var was []WireAttachment
			_ = json.Unmarshal(blob, &was)
			for _, wa := range was {
				atts = append(atts, platform.Attachment{Filename: wa.Filename, ContentType: wa.ContentType})
			}
		}
		if data := argString(f.Args, "attachment_data"); data != "" && len(atts) > 0 {
			atts[0].Data = decodeData(data)
		}
		msg, err := s.p.SendMessage(bot.ID, argID(f.Args, "channel_id"), argString(f.Args, "content"), atts...)
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"message_id": msg.ID.String()})

	case MethodHistory:
		msgs, err := s.p.History(bot.ID, argID(f.Args, "channel_id"), argInt(f.Args, "limit"))
		if err != nil {
			return fail(err)
		}
		out := make([]*WireMessage, 0, len(msgs))
		for _, m := range msgs {
			out = append(out, encodeMessage(s.p, m))
		}
		blob, _ := json.Marshal(out)
		var generic []any
		_ = json.Unmarshal(blob, &generic)
		return ok(map[string]any{"messages": generic})

	case MethodGuilds:
		var ids []string
		for _, gid := range s.p.GuildsOf(bot.ID) {
			ids = append(ids, gid.String())
		}
		return ok(map[string]any{"guild_ids": strings.Join(ids, ",")})

	case MethodGuildInfo:
		info, err := s.p.GuildSummary(argID(f.Args, "guild_id"), bot.ID)
		if err != nil {
			return fail(err)
		}
		chans := make([]any, 0, len(info.Channels))
		for _, ch := range info.Channels {
			chans = append(chans, map[string]any{
				"id": ch.ID.String(), "name": ch.Name, "kind": ch.Kind.String(),
			})
		}
		return ok(map[string]any{
			"name": info.Name, "members": float64(info.Members), "channels": chans,
		})

	case MethodKick:
		if err := s.p.KickMember(bot.ID, argID(f.Args, "guild_id"), argID(f.Args, "user_id")); err != nil {
			return fail(err)
		}
		return ok(nil)

	case MethodBan:
		if err := s.p.BanMember(bot.ID, argID(f.Args, "guild_id"), argID(f.Args, "user_id")); err != nil {
			return fail(err)
		}
		return ok(nil)

	case MethodEditNickname:
		if err := s.p.EditNickname(bot.ID, argID(f.Args, "guild_id"), argID(f.Args, "user_id"), argString(f.Args, "nick")); err != nil {
			return fail(err)
		}
		return ok(nil)

	case MethodGetAttachment:
		att, err := s.p.Attachment(bot.ID, argID(f.Args, "channel_id"), argID(f.Args, "message_id"), argID(f.Args, "attachment_id"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{
			"filename": att.Filename, "content_type": att.ContentType,
			"data": encodeData(att.Data),
		})

	case MethodPermissions:
		perms, err := s.p.Permissions(argID(f.Args, "guild_id"), bot.ID)
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"value": perms.Value(), "names": strings.Join(perms.Names(), ",")})

	case MethodMemberPermissions:
		gid := argID(f.Args, "guild_id")
		if !s.p.IsMember(gid, bot.ID) {
			return fail(platform.ErrNotMember)
		}
		perms, err := s.p.Permissions(gid, argID(f.Args, "user_id"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"value": perms.Value()})

	case MethodRespondInteraction:
		msg, err := s.p.RespondInteraction(bot.ID,
			argID(f.Args, "guild_id"), argID(f.Args, "interaction_id"),
			argString(f.Args, "content"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"message_id": msg.ID.String()})

	case MethodCreateWebhook:
		wh, err := s.p.CreateWebhook(bot.ID, argID(f.Args, "channel_id"), argString(f.Args, "name"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"webhook_id": wh.ID.String(), "token": wh.Token})

	case MethodVoiceStates:
		states, err := s.p.VoiceStates(bot.ID, argID(f.Args, "guild_id"))
		if err != nil {
			return fail(err)
		}
		out := make([]any, 0, len(states))
		for _, st := range states {
			out = append(out, map[string]any{
				"user_id": st.UserID.String(), "channel_id": st.ChannelID.String(),
				"muted": st.Muted, "deafened": st.Deafened,
			})
		}
		return ok(map[string]any{"states": out})

	default:
		return fail(errors.New("gateway: unknown method " + f.Method))
	}
}
