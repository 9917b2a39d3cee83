package listing

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/htmlparse"
)

// Server renders a Directory as a scrapeable website.
type Server struct {
	dir   *Directory
	guard *guard
	cfg   AntiScrape
	srv   *http.Server
	mux   *http.ServeMux
	ln    net.Listener

	// handler is the effective root handler: the mux, possibly wrapped
	// by middleware installed via SetMiddleware. Held atomically so it
	// can be swapped while the server runs.
	handler atomic.Value // of handlerBox

	mu      sync.Mutex
	renders map[string]int // per-path render counter driving flakiness

	requests int64
}

// NewServer starts the listing site on addr.
func NewServer(dir *Directory, cfg AntiScrape, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listing: listen: %w", err)
	}
	s := &Server{
		dir:     dir,
		guard:   newGuard(cfg, nil),
		cfg:     cfg,
		ln:      ln,
		renders: make(map[string]int),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/bots", s.guarded(s.handleList))
	mux.HandleFunc("/bot/", s.guarded(s.handleDetail))
	mux.HandleFunc("/oauth/authorize", s.guarded(s.handleConsent))
	mux.HandleFunc("/oauth/slow/", s.handleSlowRedirect) // delay is the defence
	mux.HandleFunc("/captcha", s.handleCaptcha)
	mux.HandleFunc("/site/", s.guarded(s.handleSite))
	mux.HandleFunc("/robots.txt", s.handleRobots)
	s.mux = mux
	s.handler.Store(handlerBox{mux})
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.handler.Load().(handlerBox).h.ServeHTTP(w, r)
	})}
	go s.srv.Serve(ln)
	return s, nil
}

// Mount registers an extra handler on the site's mux — ungated by the
// anti-scraping guard. The auditor uses it to expose /metrics.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// SetMiddleware wraps the whole site (including mounted handlers) in
// mw — the hook the chaos harness uses to interpose fault injection.
// Passing nil restores the bare mux. Safe to call while serving.
func (s *Server) SetMiddleware(mw func(http.Handler) http.Handler) {
	if mw == nil {
		s.handler.Store(handlerBox{s.mux})
		return
	}
	s.handler.Store(handlerBox{mw(s.mux)})
}

// handlerBox gives atomic.Value the single concrete type it requires
// while the boxed handler's type varies.
type handlerBox struct{ h http.Handler }

// BaseURL returns the site root.
func (s *Server) BaseURL() string { return "http://" + s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// Requests returns how many admitted page loads the site has served.
func (s *Server) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// guarded wraps a handler with the anti-scraping gate.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ch := s.guard.admitRequest(clientKey(r), r.Header.Get("X-Captcha-Pass"))
		switch v {
		case throttled:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		case challenged:
			renderCaptcha(w, ch)
			return
		}
		s.mu.Lock()
		s.requests++
		s.mu.Unlock()
		h(w, r)
	}
}

func (s *Server) handleRobots(w http.ResponseWriter, r *http.Request) {
	if s.cfg.RobotsTxt == "" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.cfg.RobotsTxt)
}

func (s *Server) handleCaptcha(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	ans, ok := parseAnswer(r.FormValue("answer"))
	if !ok {
		http.Error(w, "bad answer", http.StatusBadRequest)
		return
	}
	pass, solved := s.guard.solve(clientKey(r), r.FormValue("challenge_id"), ans)
	if !solved {
		http.Error(w, "wrong answer", http.StatusForbidden)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><body><div id="captcha-pass" data-pass="%s">solved</div></body></html>`, pass)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	page := 1
	if p := r.URL.Query().Get("page"); p != "" {
		if v, err := strconv.Atoi(p); err == nil && v > 0 {
			page = v
		}
	}
	var bots []*Bot
	nextHref := ""
	if tag := r.URL.Query().Get("tag"); tag != "" {
		var more bool
		bots, more = s.dir.PageByTag(tag, page)
		if more {
			nextHref = fmt.Sprintf("/bots?tag=%s&page=%d", tag, page+1)
		}
	} else {
		bots = s.dir.Page(page)
		if page < s.dir.Pages() {
			nextHref = fmt.Sprintf("/bots?page=%d", page+1)
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<html><head><title>Top Chatbots</title></head><body><ul class="bot-list">`)
	for _, bot := range bots {
		fmt.Fprintf(&b, `<li class="bot-card" data-bot-id="%d">
<a class="bot-link" href="/bot/%d"><span class="bot-name">%s</span></a>
<span class="votes">%d</span><span class="guilds">%d</span>
</li>`, bot.ID, bot.ID, htmlparse.EscapeText(bot.Name), bot.Votes, bot.GuildCount)
	}
	b.WriteString(`</ul>`)
	if nextHref != "" {
		fmt.Fprintf(&b, `<a id="next-page" href="%s">Next</a>`, htmlparse.EscapeAttr(nextHref))
	}
	b.WriteString(`</body></html>`)
	fmt.Fprint(w, b.String())
}

// flakyRender reports whether this render of path should omit optional
// blocks. Deterministically, one in FlakyEvery paths is flaky, and only
// on its first render — a retry always sees the full page, which is
// exactly the recover-by-retrying behaviour §3 calls for.
func (s *Server) flakyRender(path string) bool {
	if s.cfg.FlakyEvery <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.renders[path]++
	if s.renders[path] != 1 {
		return false
	}
	var h uint32
	for i := 0; i < len(path); i++ {
		h = h*31 + uint32(path[i])
	}
	return h%uint32(s.cfg.FlakyEvery) == 0
}

func (s *Server) handleDetail(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/bot/"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	bot, ok := s.dir.ByID(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	flaky := s.flakyRender(r.URL.Path)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><title>%s</title></head><body>
<div id="bot-detail" data-bot-id="%d">
<h1 class="bot-name">%s</h1>
<p class="description">%s</p>
<span class="guild-count">%d</span><span class="vote-count">%d</span>
<span class="prefix">%s</span>`,
		htmlparse.EscapeText(bot.Name), bot.ID, htmlparse.EscapeText(bot.Name),
		htmlparse.EscapeText(bot.Description), bot.GuildCount, bot.Votes,
		htmlparse.EscapeAttr(bot.Prefix))
	b.WriteString(`<ul class="tags">`)
	for _, tg := range bot.Tags {
		fmt.Fprintf(&b, `<li class="tag">%s</li>`, htmlparse.EscapeText(tg))
	}
	b.WriteString(`</ul><ul class="developers">`)
	for _, dev := range bot.Developers {
		fmt.Fprintf(&b, `<li class="developer">%s</li>`, htmlparse.EscapeText(dev))
	}
	b.WriteString(`</ul><ul class="commands">`)
	for _, c := range bot.Commands {
		fmt.Fprintf(&b, `<li class="command">%s</li>`, htmlparse.EscapeText(c))
	}
	b.WriteString(`</ul>`)
	if bot.HasWebsite {
		fmt.Fprintf(&b, `<a class="website" href="/site/%d">Website</a>`, bot.ID)
	}
	if bot.GitHubURL != "" {
		fmt.Fprintf(&b, `<a class="github" href="%s">GitHub</a>`, htmlparse.EscapeAttr(bot.GitHubURL))
	}
	if !flaky {
		fmt.Fprintf(&b, `<a class="invite" href="%s">Invite</a>`, htmlparse.EscapeAttr(s.inviteHref(bot)))
	}
	b.WriteString(`</div></body></html>`)
	fmt.Fprint(w, b.String())
}

// inviteHref renders the install link according to invite health.
func (s *Server) inviteHref(b *Bot) string {
	switch b.InviteHealth {
	case InviteBroken:
		// A mangled OAuth URL, as seen in the wild.
		return fmt.Sprintf("/oauth/authorize?bot_id=%d%%ZZ&permissions=", b.ID)
	case InviteSlow:
		return fmt.Sprintf("/oauth/slow/%d", b.ID)
	default:
		return fmt.Sprintf("/oauth/authorize?bot_id=%d&permissions=%s", b.ID, b.Perms.Value())
	}
}

func (s *Server) handleConsent(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err := strconv.Atoi(q.Get("bot_id"))
	if err != nil {
		http.Error(w, "bad bot_id", http.StatusBadRequest)
		return
	}
	bot, ok := s.dir.ByID(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if bot.InviteHealth == InviteRemoved {
		http.Error(w, "bot removed", http.StatusGone)
		return
	}
	permVal := q.Get("permissions")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, `<html><body><div id="consent" data-bot-id="%d">
<h2>%s wants access to your server</h2>
<span id="perm-value">%s</span><ul class="perm-list">`,
		bot.ID, htmlparse.EscapeText(bot.Name), htmlparse.EscapeAttr(permVal))
	for _, name := range bot.Perms.Names() {
		fmt.Fprintf(&b, `<li class="perm">%s</li>`, htmlparse.EscapeText(name))
	}
	b.WriteString(`</ul><button id="authorize">Authorize</button></div></body></html>`)
	fmt.Fprint(w, b.String())
}

func (s *Server) handleSlowRedirect(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/oauth/slow/")
	// The whole point of this endpoint is the stall, but once the
	// client has given up there is no one left to stall.
	t := time.NewTimer(s.guard.cfg.SlowRedirectDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
		return
	}
	bot, ok := func() (*Bot, bool) {
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, false
		}
		return s.dir.ByID(n)
	}()
	if !ok {
		http.NotFound(w, r)
		return
	}
	http.Redirect(w, r, fmt.Sprintf("/oauth/authorize?bot_id=%d&permissions=%s", bot.ID, bot.Perms.Value()), http.StatusFound)
}

func (s *Server) handleSite(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/site/")
	parts := strings.SplitN(rest, "/", 2)
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		http.NotFound(w, r)
		return
	}
	bot, ok := s.dir.ByID(id)
	if !ok || !bot.HasWebsite {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if len(parts) == 2 && parts[1] == "privacy" {
		if bot.PolicyDead || !bot.HasPolicyLink {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `<html><body><div id="privacy-policy"><pre>%s</pre></div></body></html>`,
			htmlparse.EscapeText(bot.PolicyText))
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<html><body><div id="bot-site" data-bot-id="%d"><h1>%s</h1>
<p>The official home of %s.</p>`, bot.ID, htmlparse.EscapeText(bot.Name), htmlparse.EscapeText(bot.Name))
	if bot.HasPolicyLink {
		fmt.Fprintf(&b, `<a id="privacy-link" href="/site/%d/privacy">Privacy Policy</a>`, bot.ID)
	}
	b.WriteString(`</div></body></html>`)
	fmt.Fprint(w, b.String())
}
