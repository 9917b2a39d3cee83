package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/botsdk"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// gateway-chat's load shape: one guild, gwUsers chatting users, two
// bot sessions, two generator goroutines, and one session issuing
// requests 3:1 Send:History on a fixed schedule.
const (
	gwUsers      = 8
	gwGenerators = 2
	// gwFixedRate is the fixed-rate phase's offered load in messages
	// per second: 8,000 events/s, a fifteenth of the saturate phase's
	// rate on a 2-vCPU box. A subscriber stalled for 64 ms overflows its
	// 256-event buffer at this rate; at 10,000 msg/s, 25 ms stalls of a
	// contended box already lost events.
	gwFixedRate = 4000
	// gwWindow bounds the saturate phase's messages the slower session
	// has yet to receive, leaving room for the requests' echoes below
	// the platform's 256-event subscription buffer, so nothing is
	// dropped.
	gwWindow = 128
	// gwReqRate is the requesting session's schedule in requests per
	// second.
	gwReqRate = 250
	// gwFixedShare is the fixed-rate phase's share of the window.
	gwFixedShare = 0.4
	// gwMaxRate caps the saturate phase's publish rate, sizing its
	// per-message accounting.
	gwMaxRate = 250000
	// gwDrain bounds how long a phase waits for in-flight deliveries.
	gwDrain = 5 * time.Second
	// gwHistory is each History request's limit.
	gwHistory = 5
)

// gwWorld is the in-process platform + gateway with two dialled bot
// sessions in one guild.
type gwWorld struct {
	p       *platform.Platform
	srv     *gateway.Server
	reg     *obs.Registry
	guild   string
	channel platform.ID
	users   []platform.ID
	// speakers is the seeded order in which users post: message n is
	// posted by users[speakers[n%len(speakers)]].
	speakers []int
	sessions [2]*botsdk.Session
	botIDs   [2]string

	// cur is the phase deliveries are credited to.
	cur atomic.Pointer[gwPhase]

	world, dial time.Duration
}

func (w *gwWorld) close() {
	for _, s := range w.sessions {
		if s != nil {
			s.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.p.Close()
}

// buildGatewayWorld creates the platform, guild, users and bots,
// starts the gateway and dials both sessions.
func buildGatewayWorld(env *runEnv, parent int) (*gwWorld, error) {
	root, endRoot := env.spans.start("gateway-chat.setup", parent)
	defer endRoot()
	_, endWorld := env.spans.start("platform.world", root)
	w := &gwWorld{reg: obs.NewRegistry()}
	w.p = platform.New(platform.Options{Obs: w.reg})
	admin := w.p.CreateUser("bench-admin")
	g, err := w.p.CreateGuild(admin.ID, "bench-guild", false)
	if err != nil {
		w.p.Close()
		return nil, err
	}
	w.guild = g.ID.String()
	for id, ch := range g.Channels {
		if ch.Kind == platform.ChannelText {
			w.channel = id
		}
	}
	for i := 0; i < gwUsers; i++ {
		u := w.p.CreateUser(fmt.Sprintf("bench-user-%d", i))
		if err := w.p.JoinGuild(u.ID, g.ID); err != nil {
			w.p.Close()
			return nil, err
		}
		w.users = append(w.users, u.ID)
	}
	w.speakers = speakerOrder(env.seed)
	dev := w.p.CreateUser("bench-dev")
	var tokens [2]string
	for i := range tokens {
		bot, err := w.p.RegisterBot(dev.ID, fmt.Sprintf("bench-bot-%d", i))
		if err != nil {
			w.p.Close()
			return nil, err
		}
		perms := permissions.ViewChannel | permissions.SendMessages | permissions.ReadMessageHistory
		if _, err := w.p.InstallBot(admin.ID, g.ID, bot.ID, perms); err != nil {
			w.p.Close()
			return nil, err
		}
		tokens[i], w.botIDs[i] = bot.Token, bot.ID.String()
	}
	if w.srv, err = gateway.NewServer(w.p, "127.0.0.1:0"); err != nil {
		w.p.Close()
		return nil, err
	}
	w.srv.SetObs(w.reg)
	w.world = endWorld()

	_, endDial := env.spans.start("botsdk.Dial", root)
	for i, tok := range tokens {
		s, err := botsdk.Dial(w.srv.Addr(), tok, botsdk.Options{RequestTimeout: 5 * time.Second})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial session %d: %w", i, err)
		}
		i := i
		s.OnMessage(func(_ *botsdk.Session, m *botsdk.Message) {
			if ph := w.cur.Load(); ph != nil {
				ph.deliver(i, m)
			}
		})
		w.sessions[i] = s
	}
	w.dial = endDial()
	return w, nil
}

// speakerOrder is gateway-chat's seeded input: which user posts each
// message.
func speakerOrder(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 1024)
	for i := range order {
		order[i] = rng.Intn(gwUsers)
	}
	return order
}

// gwPhase is one phase's accounting. Message sequence numbers index
// due; a message is published iff its due time is set.
type gwPhase struct {
	tag   string
	t0    time.Time
	due   []atomic.Int64 // ns since t0; 0 = never published
	next  atomic.Int64   // next sequence number to assign
	guild string
	// timed records per-delivery latency (the fixed-rate phase).
	timed bool

	sess [2]*sessionLog
	// mDelivered counts generator-message deliveries per session, for
	// the saturate phase's window.
	mDelivered [2]atomic.Int64
	kick       chan struct{}

	// Requests.
	replyMu  sync.Mutex
	sent     map[int]string // request number → message ID Send returned
	received map[int]string // request number → message ID session 1 received
	author   map[int]string
}

// sessionLog is one session's view of a phase, written only by that
// session's read loop and read under mu.
type sessionLog struct {
	mu        sync.Mutex
	count     []uint8
	delivered int64
	dup       int64
	foreign   int64
	lat       []time.Duration
}

func newPhase(tag string, capacity int, guild string, timed bool) *gwPhase {
	ph := &gwPhase{
		tag: tag, guild: guild, timed: timed,
		due:      make([]atomic.Int64, capacity),
		kick:     make(chan struct{}, 1),
		sent:     make(map[int]string),
		received: make(map[int]string),
		author:   make(map[int]string),
	}
	for i := range ph.sess {
		ph.sess[i] = &sessionLog{count: make([]uint8, capacity)}
	}
	return ph
}

// content formats a generator message ("m" + phase tag) or a request's
// Send ("r").
func (ph *gwPhase) content(kind byte, n int) string {
	return string(kind) + ph.tag + ":" + strconv.Itoa(n)
}

func (ph *gwPhase) parse(content string) (kind byte, n int, ok bool) {
	if len(content) < 2 {
		return 0, 0, false
	}
	rest, found := strings.CutPrefix(content[1:], ph.tag+":")
	if !found {
		return 0, 0, false
	}
	n, err := strconv.Atoi(rest)
	return content[0], n, err == nil && n >= 0
}

// deliver credits one MESSAGE_CREATE to session s. It runs on the
// session's read loop.
func (ph *gwPhase) deliver(s int, m *botsdk.Message) {
	now := time.Since(ph.t0)
	l := ph.sess[s]
	kind, n, ok := ph.parse(m.Content)
	l.mu.Lock()
	l.delivered++
	switch {
	case !ok || m.GuildID != ph.guild:
		l.foreign++
	case kind == 'm':
		if n >= len(ph.due) || ph.due[n].Load() == 0 {
			l.foreign++
			break
		}
		if l.count[n]++; l.count[n] > 1 {
			l.dup++
		}
		if ph.timed {
			l.lat = append(l.lat, now-time.Duration(ph.due[n].Load()))
		}
	case kind == 'r' && s == 1:
		ph.replyMu.Lock()
		if _, seen := ph.received[n]; seen {
			l.dup++
		}
		ph.received[n], ph.author[n] = m.ID, m.AuthorID
		ph.replyMu.Unlock()
	default:
		l.foreign++
	}
	l.mu.Unlock()
	if kind == 'm' && ok {
		ph.mDelivered[s].Add(1)
		select {
		case ph.kick <- struct{}{}:
		default:
		}
	}
}

func (ph *gwPhase) published() int64 {
	n := ph.next.Load()
	if n > int64(len(ph.due)) {
		n = int64(len(ph.due))
	}
	return n
}

// backlog is generator messages published but not yet delivered to
// both sessions, counted in events.
func (ph *gwPhase) backlog() int64 {
	return 2*ph.published() - ph.mDelivered[0].Load() - ph.mDelivered[1].Load()
}

// inflight is generator messages the slower session has yet to receive.
func (ph *gwPhase) inflight() int64 {
	return ph.published() - min(ph.mDelivered[0].Load(), ph.mDelivered[1].Load())
}

// publish sends message n as its user, recording its due time first.
func (w *gwWorld) publish(ph *gwPhase, n int, due time.Duration) (time.Duration, error) {
	if due <= 0 {
		due = 1
	}
	ph.due[n].Store(int64(due))
	start := time.Now()
	user := w.users[w.speakers[n%len(w.speakers)]]
	_, err := w.p.SendMessage(user, w.channel, ph.content('m', n))
	return time.Since(start), err
}

// phaseStats is what one phase measured.
type phaseStats struct {
	wall              time.Duration
	published         int64
	events            int64 // MESSAGE_CREATE deliveries during the phase
	publishErrs       int64
	publishTime       time.Duration
	lateness          []time.Duration
	backlogs          []int64
	endBacklog        int64
	rpc, send, hist   []time.Duration // rpc is due→done; send/hist are call times
	reqFailed, reqAll int64
	reqErr            error // the first failed request's error
	// Per-slice delivered events per second and CPU µs per event.
	sliceRate, sliceCPU []float64
	// lat is every due→deliver latency of a timed phase.
	lat []time.Duration
}

// phaseSlices is how many equal slices each phase is sampled in.
const phaseSlices = 10

// requester issues gwReqRate requests a second from session 0 until
// stop, 3:1 Send:History, each timed from its due time.
func (w *gwWorld) requester(ph *gwPhase, stop <-chan struct{}, st *phaseStats, bad func(string, ...any)) {
	interval := time.Second / gwReqRate
	ch := w.channel.String()
	for k := 0; ; k++ {
		due := time.Duration(k) * interval
		if d := due - time.Since(ph.t0); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		var err error
		if k%4 == 3 {
			var msgs []*botsdk.Message
			msgs, err = w.sessions[0].History(ch, gwHistory)
			if err == nil {
				if len(msgs) == 0 || len(msgs) > gwHistory {
					bad("history returned %d messages for limit %d", len(msgs), gwHistory)
				}
				for _, m := range msgs {
					if m.ChannelID != ch {
						bad("history of channel %s returned a message of channel %s", ch, m.ChannelID)
					}
				}
			}
			st.hist = append(st.hist, time.Since(start))
		} else {
			var id string
			id, err = w.sessions[0].Send(ch, ph.content('r', k))
			if err == nil {
				ph.replyMu.Lock()
				ph.sent[k] = id
				ph.replyMu.Unlock()
			}
			st.send = append(st.send, time.Since(start))
		}
		st.reqAll++
		if err != nil {
			if st.reqFailed == 0 {
				st.reqErr = err
			}
			st.reqFailed++
			continue
		}
		st.rpc = append(st.rpc, time.Since(ph.t0)-due)
	}
}

// runPhase runs one phase for d: the fixed-rate phase publishes on an
// open-loop schedule at gwFixedRate; the saturate phase publishes as
// fast as the in-flight window allows. Both drain before returning.
func (w *gwWorld) runPhase(ph *gwPhase, d time.Duration, saturate bool, bad func(string, ...any)) *phaseStats {
	st := &phaseStats{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pubErrs atomic.Int64
	var pubNS atomic.Int64
	late := make([][]time.Duration, gwGenerators)

	events0 := w.deliveredTotal(ph)
	c0 := cpuTime()
	ph.t0 = time.Now()
	w.cur.Store(ph)
	for g := 0; g < gwGenerators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			late[g] = generate(ph, g, saturate, stop, func(n int, due time.Duration) bool {
				took, err := w.publish(ph, n, due)
				pubNS.Add(int64(took))
				if err != nil {
					pubErrs.Add(1)
				}
				return true
			})
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.requester(ph, stop, st, bad)
	}()
	// Sample the backlog, deliveries and CPU ten times across the phase.
	prevEvents, prevCPU, prevT := events0, c0, ph.t0
	for i := 1; i <= phaseSlices; i++ {
		time.Sleep(time.Until(ph.t0.Add(d * time.Duration(i) / phaseSlices)))
		now, ev, cpu := time.Now(), w.deliveredTotal(ph), cpuTime()
		st.backlogs = append(st.backlogs, ph.backlog())
		st.sliceRate = append(st.sliceRate, float64(ev-prevEvents)/now.Sub(prevT).Seconds())
		if ev > prevEvents {
			st.sliceCPU = append(st.sliceCPU, (cpu-prevCPU).Seconds()*1e6/float64(ev-prevEvents))
		}
		prevEvents, prevCPU, prevT = ev, cpu, now
	}
	close(stop)
	wg.Wait()
	st.wall = time.Since(ph.t0)
	st.events = w.deliveredTotal(ph) - events0
	st.endBacklog = ph.backlog()
	st.published = ph.published()
	st.publishErrs = pubErrs.Load()
	st.publishTime = time.Duration(pubNS.Load())
	for _, l := range late {
		st.lateness = append(st.lateness, l...)
	}
	w.drain(ph)
	w.cur.Store(nil)
	for _, l := range ph.sess {
		l.mu.Lock()
		st.lat = append(st.lat, l.lat...)
		l.mu.Unlock()
	}
	return st
}

// generate is one generator goroutine, running until stop or until the
// phase's accounting is full. Open loop (saturate false): generator g
// publishes messages g, g+gwGenerators, … each due at n/gwFixedRate
// after the phase start, published late when the generator falls
// behind, and returns how late each was. Closed loop: it publishes the
// next message, due now, whenever fewer than gwWindow messages are in
// flight. publish returning false stops it.
func generate(ph *gwPhase, g int, saturate bool, stop <-chan struct{}, publish func(n int, due time.Duration) bool) []time.Duration {
	var late []time.Duration
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return late
		default:
		}
		var n int
		var due time.Duration
		if saturate {
			for ph.inflight() >= gwWindow {
				select {
				case <-stop:
					return late
				case <-ph.kick:
				case <-tick.C:
				}
			}
			n = int(ph.next.Add(1) - 1)
			due = time.Since(ph.t0)
		} else {
			n = i*gwGenerators + g
			due = time.Duration(float64(n) / gwFixedRate * float64(time.Second))
			if wait := due - time.Since(ph.t0); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, time.Since(ph.t0)-due)
			ph.next.Add(1)
		}
		if n >= len(ph.due) || !publish(n, due) {
			return late
		}
	}
}

func (w *gwWorld) deliveredTotal(ph *gwPhase) int64 {
	var n int64
	for _, l := range ph.sess {
		l.mu.Lock()
		n += l.delivered
		l.mu.Unlock()
	}
	return n
}

// drain waits until both sessions received every published message and
// every Send's echo, or gwDrain passes.
func (w *gwWorld) drain(ph *gwPhase) {
	deadline := time.Now().Add(gwDrain)
	for time.Now().Before(deadline) {
		ph.replyMu.Lock()
		replies := len(ph.received) >= len(ph.sent)
		ph.replyMu.Unlock()
		if ph.backlog() == 0 && replies {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkPhase applies the gateway correctness gate to a drained phase
// and returns the events expected and lost.
func checkPhase(w *gwWorld, ph *gwPhase, st *phaseStats, bad func(string, ...any)) (expected, lost int64) {
	pub := int(st.published)
	for s, l := range ph.sess {
		l.mu.Lock()
		if l.dup > 0 {
			bad("phase %s session %d: %d events delivered more than once", ph.tag, s, l.dup)
		}
		if l.foreign > 0 {
			bad("phase %s session %d: %d events that were never published into its guild", ph.tag, s, l.foreign)
		}
		for n := 0; n < pub; n++ {
			if ph.due[n].Load() != 0 && l.count[n] == 0 {
				lost++
			}
		}
		l.mu.Unlock()
		expected += int64(pub)
	}
	ph.replyMu.Lock()
	for k, id := range ph.sent {
		got, ok := ph.received[k]
		switch {
		case !ok:
			lost++
		case got != id:
			bad("phase %s request %d: Send returned message %s but the other session received %s", ph.tag, k, id, got)
		case ph.author[k] != w.botIDs[0]:
			bad("phase %s request %d: echo authored by %s, want bot %s", ph.tag, k, ph.author[k], w.botIDs[0])
		}
	}
	for k := range ph.received {
		if _, ok := ph.sent[k]; !ok {
			bad("phase %s: session 1 received request %d's echo, which Send never acknowledged", ph.tag, k)
		}
	}
	expected += int64(len(ph.sent))
	ph.replyMu.Unlock()
	return expected, lost
}

// gwPass is the fixed-rate phase on one world followed by gwBursts
// saturate bursts, each on a fresh world: a world's message history
// grows by about 100,000 messages a second at saturation, and the rate
// drifts with it, so each burst starts from an empty history.
type gwPass struct {
	fixed  *phaseStats
	bursts []*phaseStats
	// setups are the world + dial times of every world built.
	setups []float64
	// world and dial split the first world's set-up.
	world, dial                    time.Duration
	eventsOut, dropped, subDropped int64
}

const gwBursts = 3

// saturate merges the bursts' statistics.
func (p *gwPass) saturate() *phaseStats {
	all := &phaseStats{}
	for _, b := range p.bursts {
		all.wall += b.wall
		all.events += b.events
		all.rpc = append(all.rpc, b.rpc...)
		all.send = append(all.send, b.send...)
		all.hist = append(all.hist, b.hist...)
		all.sliceRate = append(all.sliceRate, b.sliceRate...)
		all.sliceCPU = append(all.sliceCPU, b.sliceCPU...)
	}
	return all
}

func runGatewayPass(env *runEnv, out *outcome, profile string) (*gwPass, error) {
	root, endRoot := env.spans.start("gateway-chat.pass", 0)
	defer endRoot()
	if profile != "" {
		f, err := startProfile(profile)
		if err != nil {
			return nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	fixedDur := time.Duration(float64(env.seconds) * gwFixedShare)
	burstDur := (env.seconds - fixedDur) / gwBursts
	p := &gwPass{}
	var badMu sync.Mutex
	bad := func(format string, args ...any) {
		badMu.Lock()
		defer badMu.Unlock()
		if len(out.problems) < 20 {
			out.problem(format, args...)
		}
	}
	phase := func(tag string, d time.Duration, saturate bool) (*phaseStats, error) {
		w, err := buildGatewayWorld(env, root)
		if err != nil {
			return nil, err
		}
		defer w.close()
		if p.setups == nil {
			p.world, p.dial = w.world, w.dial
		}
		p.setups = append(p.setups, (w.world + w.dial).Seconds())
		capacity := int(d.Seconds()*gwFixedRate) + gwGenerators
		name := "gateway-chat.fixed_rate"
		if saturate {
			capacity, name = int(d.Seconds()*gwMaxRate), "gateway-chat.saturate"
		}
		ph := newPhase(tag, capacity, w.guild, !saturate)
		_, end := env.spans.start(name, root)
		st := w.runPhase(ph, d, saturate, bad)
		end()
		exp, lost := checkPhase(w, ph, st, bad)
		out.attempted += exp + st.reqAll + st.publishErrs
		out.failed += lost + st.reqFailed + st.publishErrs
		if lost+st.reqFailed+st.publishErrs > 0 {
			out.note("phase %s: %d of %d events lost, %d of %d requests failed (first: %v), %d publishes failed",
				tag, lost, exp, st.reqFailed, st.reqAll, st.reqErr, st.publishErrs)
		}
		p.eventsOut += w.reg.Counter("gateway_events_out_total").Value()
		p.dropped += w.reg.Counter("gateway_events_dropped_total").Value()
		p.subDropped += w.reg.Counter("gateway_sub_events_dropped_total").Value()
		return st, nil
	}
	var err error
	if p.fixed, err = phase("f", fixedDur, false); err != nil {
		return nil, err
	}
	for i := 0; i < gwBursts; i++ {
		st, err := phase(fmt.Sprintf("s%d", i), burstDur, true)
		if err != nil {
			return nil, err
		}
		p.bursts = append(p.bursts, st)
	}
	return p, nil
}

// gatewaySetup times one more world build plus dials, closing it.
func gatewaySetup(env *runEnv) func() (float64, error) {
	return func() (float64, error) {
		w, err := buildGatewayWorld(env, 0)
		if err != nil {
			return 0, err
		}
		w.close()
		return (w.world + w.dial).Seconds(), nil
	}
}

func runGatewayChat(env *runEnv) (*outcome, error) {
	out := &outcome{}
	profile := ""
	if env.traced {
		profile = filepath.Join(env.out, "cpu-gateway.pprof")
	}
	g0 := readGoStats()
	p, err := runGatewayPass(env, out, profile)
	if err != nil {
		return nil, err
	}
	g1 := readGoStats()
	setups, err := moreSetups(p.setups, gatewaySetup(env))
	if err != nil {
		return nil, err
	}
	fx, sat := p.fixed, p.saturate()
	if fx.events == 0 || sat.events == 0 {
		return nil, errors.New("no events delivered")
	}
	out.set("setup_s", median(setups))
	// Medians over the phases' slices, so a transient stall moves
	// neither headline. The CPU per event is the saturate phase's: at
	// the fixed rate it read about 33 or about 40 µs depending on the
	// run, steady within each, while at saturation it repeats.
	out.set("items_per_s", median(sat.sliceRate))
	out.set("cpu_us_per_item", median(sat.sliceCPU))
	out.set("gateway.fixed_cpu_us_per_event", median(fx.sliceCPU))
	out.set("bench.fail_ratio", float64(out.failed)/float64(out.attempted))

	latMS := msOf(fx.lat)
	sort.Float64s(latMS)
	out.set("gateway.event_p50_ms", quantile(latMS, 0.5))
	out.set("gateway.event_p99_ms", quantile(latMS, 0.99))
	rpc := msOf(sat.rpc)
	sort.Float64s(rpc)
	out.set("botsdk.rpc_p50_ms", quantile(rpc, 0.5))
	out.set("botsdk.rpc_p99_ms", quantile(rpc, 0.99))
	tailP, _ := tailPercentile(rpc)
	out.note("gateway-chat: fixed rate %d msg/s for %.1fs: %d events, p50 %.3f ms, p99 %.3f ms (%d samples); saturate %.1fs: %d events (%.0f/s), rpc p50 %.3f ms p99 %.3f ms (%d samples, p%g is the highest with 10 beyond)",
		gwFixedRate, fx.wall.Seconds(), fx.events, quantile(latMS, 0.5), quantile(latMS, 0.99), len(latMS),
		sat.wall.Seconds(), sat.events, float64(sat.events)/sat.wall.Seconds(), quantile(rpc, 0.5), quantile(rpc, 0.99), len(rpc), tailP)

	// Open-loop honesty: generator lateness and backlog.
	lateMS := msOf(fx.lateness)
	sort.Float64s(lateMS)
	out.set("gen.lateness_p99_ms", quantile(lateMS, 0.99))
	out.set("gen.backlog", float64(fx.endBacklog))
	growing := backlogGrowing(fx.backlogs)
	if growing {
		out.set("gen.backlog_growing", 1)
		out.note("WARNING: the backlog grew through the fixed-rate phase %v: the generator outran the gateway, so its latencies are not valid", fx.backlogs)
	}
	out.note("gateway-chat: %d setups, median %.6f s", len(setups), median(setups))
	out.note("saturate slices %v events/s, %v us/event; fixed-rate slices %v us/event", roundAll(sat.sliceRate, 0), roundAll(sat.sliceCPU, 2), roundAll(fx.sliceCPU, 2))

	if env.traced {
		out.set("platform.world_s", p.world.Seconds())
		out.set("botsdk.dial_s", p.dial.Seconds())
		out.set("platform.publish_us", float64(fx.publishTime.Microseconds())/float64(fx.published))
		out.set("gateway.events_out", float64(p.eventsOut))
		out.set("gateway.events_dropped", float64(p.dropped))
		out.set("gateway.sub_events_dropped", float64(p.subDropped))
		send := msOf(append(fx.send, sat.send...))
		hist := msOf(append(fx.hist, sat.hist...))
		sort.Float64s(send)
		sort.Float64s(hist)
		out.set("botsdk.send_p50_ms", quantile(send, 0.5))
		out.set("botsdk.history_p50_ms", quantile(hist, 0.5))
		setGoLayers(out, g0, g1, fx.events+sat.events)
		shares, samples, err := profileShares(profile)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			out.set("cpu_share."+k, v)
		}
		out.note("cpu profile of the pass: %d samples", samples)
		// The gateway has no program-side tracing; the overhead is that
		// of the benchmark's own per-call spans, measured by a second
		// pass that records one per publish and request.
		traced, err := runTracedGatewayPass(env, filepath.Join(env.out, "cpu-gateway-traced.pprof"))
		if err != nil {
			return nil, err
		}
		out.set("trace.overhead_share", median(sat.sliceRate)/traced-1)
	}
	return out, nil
}

// runTracedGatewayPass repeats one saturate burst with a benchmark span
// around every publish, under a CPU profile as the untraced pass was,
// and returns its delivered events per second.
func runTracedGatewayPass(env *runEnv, profile string) (float64, error) {
	root, endRoot := env.spans.start("gateway-chat.traced_pass", 0)
	defer endRoot()
	f, err := startProfile(profile)
	if err != nil {
		return 0, err
	}
	defer func() {
		pprof.StopCPUProfile()
		f.Close()
	}()
	// Per-publish spans go to a log of their own, which is dropped: the
	// pass measures what recording them costs.
	calls := newSpanLog(env.spans.runID)
	w, err := buildGatewayWorld(env, root)
	if err != nil {
		return 0, err
	}
	defer w.close()
	d := (env.seconds - time.Duration(float64(env.seconds)*gwFixedShare)) / gwBursts
	ph := newPhase("t", int(d.Seconds()*gwMaxRate), w.guild, false)
	ph.t0 = time.Now()
	w.cur.Store(ph)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < gwGenerators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			generate(ph, g, true, stop, func(n int, due time.Duration) bool {
				_, end := calls.start("platform.SendMessage", 0)
				_, err := w.publish(ph, n, due)
				end()
				return err == nil
			})
		}(g)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	wall := time.Since(ph.t0)
	events := w.deliveredTotal(ph)
	w.drain(ph)
	w.cur.Store(nil)
	return float64(events) / wall.Seconds(), nil
}

// backlogGrowing flags a fixed-rate phase whose backlog rose through
// the phase: every sample of its last third exceeds every sample of its
// first third by more than one in-flight window.
func backlogGrowing(samples []int64) bool {
	k := len(samples) / 3
	if k == 0 {
		return false
	}
	var firstMax int64
	for _, b := range samples[:k] {
		if b > firstMax {
			firstMax = b
		}
	}
	for _, b := range samples[len(samples)-k:] {
		if b <= firstMax+gwWindow {
			return false
		}
	}
	return true
}
