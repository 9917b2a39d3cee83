package listing

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/permissions"
)

func sampleBots(n int) []*Bot {
	bots := make([]*Bot, 0, n)
	for i := 1; i <= n; i++ {
		bots = append(bots, &Bot{
			ID:         i,
			Name:       fmt.Sprintf("bot%d", i),
			Developers: []string{"dev#0001"},
			Tags:       []string{"fun"},
			Votes:      i * 10,
			GuildCount: i,
			Prefix:     "!",
			Perms:      permissions.SendMessages | permissions.ViewChannel,
			HasWebsite: i%2 == 0,
		})
	}
	return bots
}

func TestDirectoryOrderingAndPaging(t *testing.T) {
	d := NewDirectory(sampleBots(60))
	if d.Len() != 60 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.Pages() != 3 {
		t.Fatalf("pages = %d", d.Pages())
	}
	p1 := d.Page(1)
	if len(p1) != PageSize {
		t.Fatalf("page 1 size = %d", len(p1))
	}
	// Votes descending.
	if p1[0].Votes != 600 || p1[1].Votes > p1[0].Votes {
		t.Errorf("page 1 not vote-sorted: %d, %d", p1[0].Votes, p1[1].Votes)
	}
	last := d.Page(3)
	if len(last) != 60-2*PageSize {
		t.Errorf("last page size = %d", len(last))
	}
	if got := d.Page(4); got != nil {
		t.Errorf("past-the-end page = %v", got)
	}
	if got := d.Page(0); got != nil {
		t.Errorf("page 0 = %v", got)
	}
	if _, ok := d.ByID(1); !ok {
		t.Error("ByID miss")
	}
	if _, ok := d.ByID(999); ok {
		t.Error("ByID ghost hit")
	}
}

func TestDirectoryTieBreakDeterministic(t *testing.T) {
	bots := sampleBots(4)
	for _, b := range bots {
		b.Votes = 100
	}
	d1 := NewDirectory(bots)
	d2 := NewDirectory([]*Bot{bots[3], bots[2], bots[1], bots[0]})
	for i := range d1.All() {
		if d1.All()[i].ID != d2.All()[i].ID {
			t.Fatal("tie-break not deterministic across input orders")
		}
	}
}

func newServer(t *testing.T, bots []*Bot, cfg AntiScrape) *Server {
	t.Helper()
	srv, err := NewServer(NewDirectory(bots), cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestServerListAndDetailPages(t *testing.T) {
	srv := newServer(t, sampleBots(30), AntiScrape{})
	code, body := get(t, srv.BaseURL()+"/bots?page=1")
	if code != 200 || !strings.Contains(body, "bot-card") {
		t.Fatalf("list page: %d", code)
	}
	if !strings.Contains(body, "next-page") {
		t.Error("missing pagination link")
	}
	code, body = get(t, srv.BaseURL()+"/bots?page=2")
	if code != 200 || strings.Contains(body, "next-page") {
		t.Error("last page should have no next link")
	}
	code, body = get(t, srv.BaseURL()+"/bot/1")
	if code != 200 || !strings.Contains(body, "bot1") || !strings.Contains(body, "a class=\"invite\"") {
		t.Errorf("detail page: %d", code)
	}
	code, _ = get(t, srv.BaseURL()+"/bot/999")
	if code != 404 {
		t.Errorf("ghost bot status = %d", code)
	}
	code, _ = get(t, srv.BaseURL()+"/bot/notanumber")
	if code != 404 {
		t.Errorf("bad id status = %d", code)
	}
	if srv.Requests() == 0 {
		t.Error("request counter did not move")
	}
}

func TestServerConsentPage(t *testing.T) {
	bots := sampleBots(3)
	bots[0].Perms = permissions.Administrator | permissions.SendMessages
	srv := newServer(t, bots, AntiScrape{})
	code, body := get(t, fmt.Sprintf("%s/oauth/authorize?bot_id=1&permissions=%s",
		srv.BaseURL(), bots[0].Perms.Value()))
	if code != 200 {
		t.Fatalf("consent status = %d", code)
	}
	if !strings.Contains(body, `id="perm-value"`) || !strings.Contains(body, "administrator") {
		t.Errorf("consent body missing permission info")
	}
	code, _ = get(t, srv.BaseURL()+"/oauth/authorize?bot_id=zzz")
	if code != 400 {
		t.Errorf("bad bot_id status = %d", code)
	}
	code, _ = get(t, srv.BaseURL()+"/oauth/authorize?bot_id=777")
	if code != 404 {
		t.Errorf("unknown bot_id status = %d", code)
	}
}

func TestServerRemovedAndSlow(t *testing.T) {
	bots := sampleBots(3)
	bots[0].InviteHealth = InviteRemoved
	bots[1].InviteHealth = InviteSlow
	srv := newServer(t, bots, AntiScrape{SlowRedirectDelay: 50 * time.Millisecond})
	code, _ := get(t, srv.BaseURL()+"/oauth/authorize?bot_id=1")
	if code != 410 {
		t.Errorf("removed bot status = %d, want 410", code)
	}
	// Slow endpoint eventually redirects to consent.
	client := &http.Client{Timeout: 2 * time.Second}
	start := time.Now()
	resp, err := client.Get(srv.BaseURL() + "/oauth/slow/2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("slow redirect answered in %v", elapsed)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "perm-value") {
		t.Error("slow redirect did not land on consent page")
	}
	code, _ = get(t, srv.BaseURL()+"/oauth/slow/notanumber")
	if code != 404 {
		t.Errorf("bad slow id status = %d", code)
	}
}

// TestSlowRedirectStopsWhenClientGivesUp: the slow-invite stall ends
// when the client's request does, not after the full delay.
func TestSlowRedirectStopsWhenClientGivesUp(t *testing.T) {
	bots := sampleBots(1)
	bots[0].InviteHealth = InviteSlow
	srv := newServer(t, bots, AntiScrape{SlowRedirectDelay: 3 * time.Second})
	returned := make(chan struct{}, 1)
	srv.SetMiddleware(func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			returned <- struct{}{}
		})
	})
	client := &http.Client{Timeout: 50 * time.Millisecond}
	start := time.Now()
	if resp, err := client.Get(srv.BaseURL() + "/oauth/slow/1"); err == nil {
		resp.Body.Close()
		t.Fatal("slow redirect answered within the client's 50 ms timeout")
	}
	select {
	case <-returned:
	case <-time.After(time.Until(start.Add(250 * time.Millisecond))):
		t.Fatal("handler still stalling 250 ms after a request whose client gave up at 50 ms")
	}
}

func TestServerSitePages(t *testing.T) {
	bots := sampleBots(4)
	bots[1].HasPolicyLink = true // bot ID 2 has website (even)
	bots[1].PolicyText = "we collect things"
	bots[3].HasPolicyLink = true
	bots[3].PolicyDead = true
	srv := newServer(t, bots, AntiScrape{})

	code, body := get(t, srv.BaseURL()+"/site/2")
	if code != 200 || !strings.Contains(body, "privacy-link") {
		t.Errorf("site page: %d", code)
	}
	code, body = get(t, srv.BaseURL()+"/site/2/privacy")
	if code != 200 || !strings.Contains(body, "we collect things") {
		t.Errorf("policy page: %d", code)
	}
	code, _ = get(t, srv.BaseURL()+"/site/4/privacy")
	if code != 404 {
		t.Errorf("dead policy status = %d", code)
	}
	// Odd IDs have no website at all.
	code, _ = get(t, srv.BaseURL()+"/site/1")
	if code != 404 {
		t.Errorf("siteless bot status = %d", code)
	}
	code, _ = get(t, srv.BaseURL()+"/site/zzz")
	if code != 404 {
		t.Errorf("bad site id status = %d", code)
	}
}

func TestGuardRateLimitAndCaptcha(t *testing.T) {
	srv := newServer(t, sampleBots(5), AntiScrape{
		RequestsPerSecond: 5, Burst: 2, CaptchaEvery: 0,
	})
	// Burst of 2, then throttled.
	client := &http.Client{}
	codes := []int{}
	for i := 0; i < 4; i++ {
		req, _ := http.NewRequest("GET", srv.BaseURL()+"/bots", nil)
		req.Header.Set("X-Session", "ratelimit-test")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	saw429 := false
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Errorf("no 429 in %v", codes)
	}
}

func TestCaptchaChallengeAndSolve(t *testing.T) {
	srv := newServer(t, sampleBots(5), AntiScrape{CaptchaEvery: 1})
	client := &http.Client{}
	do := func(req *http.Request) (*http.Response, string) {
		req.Header.Set("X-Session", "captcha-test")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}
	// First request admitted but arms a challenge; second is blocked.
	req, _ := http.NewRequest("GET", srv.BaseURL()+"/bots", nil)
	resp, _ := do(req)
	if resp.StatusCode != 200 {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	req, _ = http.NewRequest("GET", srv.BaseURL()+"/bots", nil)
	resp, body := do(req)
	if resp.StatusCode != 403 || !strings.Contains(body, "data-challenge-id") {
		t.Fatalf("second request should be challenged: %d", resp.StatusCode)
	}
	// Extract and solve.
	chID := extractAttr(body, "data-challenge-id")
	var a, b int
	if _, err := fmt.Sscanf(between(body, "what is ", "?"), "%d plus %d", &a, &b); err != nil {
		t.Fatalf("parse challenge: %v (%q)", err, body)
	}
	form := url.Values{"challenge_id": {chID}, "answer": {fmt.Sprint(a + b)}}
	req, _ = http.NewRequest("POST", srv.BaseURL()+"/captcha", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, body = do(req)
	if resp.StatusCode != 200 {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	pass := extractAttr(body, "data-pass")
	if pass == "" {
		t.Fatal("no pass token")
	}
	// Pass unlocks the next request.
	req, _ = http.NewRequest("GET", srv.BaseURL()+"/bots", nil)
	req.Header.Set("X-Captcha-Pass", pass)
	resp, _ = do(req)
	if resp.StatusCode != 200 {
		t.Errorf("pass-bearing request status = %d", resp.StatusCode)
	}
	// Wrong answers are rejected.
	form = url.Values{"challenge_id": {"chXXXXXX"}, "answer": {"1"}}
	req, _ = http.NewRequest("POST", srv.BaseURL()+"/captcha", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, _ = do(req)
	if resp.StatusCode != 403 {
		t.Errorf("bogus solve status = %d", resp.StatusCode)
	}
	// Non-numeric answers are a 400.
	form = url.Values{"challenge_id": {"x"}, "answer": {"banana"}}
	req, _ = http.NewRequest("POST", srv.BaseURL()+"/captcha", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, _ = do(req)
	if resp.StatusCode != 400 {
		t.Errorf("bad answer status = %d", resp.StatusCode)
	}
	// GET on /captcha is not allowed.
	req, _ = http.NewRequest("GET", srv.BaseURL()+"/captcha", nil)
	resp, _ = do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET captcha status = %d", resp.StatusCode)
	}
}

func TestPageByTag(t *testing.T) {
	bots := sampleBots(60)
	for i, b := range bots {
		if i%2 == 0 {
			b.Tags = []string{"gaming", "fun"}
		} else {
			b.Tags = []string{"music"}
		}
	}
	d := NewDirectory(bots)
	p1, more := d.PageByTag("gaming", 1)
	if len(p1) != PageSize || !more {
		t.Fatalf("page 1 = %d bots, more=%v", len(p1), more)
	}
	p2, more := d.PageByTag("gaming", 2)
	if len(p2) != 30-PageSize || more {
		t.Errorf("page 2 = %d bots, more=%v", len(p2), more)
	}
	if got, _ := d.PageByTag("gaming", 3); got != nil {
		t.Errorf("past-the-end tag page = %v", got)
	}
	if got, _ := d.PageByTag("anime", 1); got != nil {
		t.Errorf("unknown tag page = %v", got)
	}
	if got, _ := d.PageByTag("music", 0); got != nil {
		t.Errorf("page 0 = %v", got)
	}
	// Vote ordering preserved within a tag.
	for i := 1; i < len(p1); i++ {
		if p1[i-1].Votes < p1[i].Votes {
			t.Fatal("tag page not vote-ordered")
		}
	}
}

func TestServerTagFilteredListing(t *testing.T) {
	bots := sampleBots(40)
	for i, b := range bots {
		if i < 10 {
			b.Tags = []string{"meme"}
		}
	}
	srv := newServer(t, bots, AntiScrape{})
	code, body := get(t, srv.BaseURL()+"/bots?tag=meme")
	if code != 200 {
		t.Fatal(code)
	}
	if n := strings.Count(body, "bot-card"); n != 10 {
		t.Errorf("meme cards = %d", n)
	}
	if strings.Contains(body, "next-page") {
		t.Error("single tag page should have no pagination link")
	}
	code, body = get(t, srv.BaseURL()+"/bots?tag=ghost-tag")
	if code != 200 || strings.Contains(body, "bot-card") {
		t.Errorf("unknown tag should list nothing: %d", code)
	}
}

func TestInviteHealthStrings(t *testing.T) {
	for h, want := range map[InviteHealth]string{
		InviteOK: "ok", InviteBroken: "broken", InviteRemoved: "removed",
		InviteSlow: "slow-redirect", InviteHealth(99): "unknown",
	} {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), want)
		}
	}
}

func TestFlakyFirstRenderOnly(t *testing.T) {
	srv := newServer(t, sampleBots(40), AntiScrape{FlakyEvery: 1}) // every path flaky once
	_, first := get(t, srv.BaseURL()+"/bot/1")
	_, second := get(t, srv.BaseURL()+"/bot/1")
	if strings.Contains(first, `class="invite"`) {
		t.Error("first render should omit the invite block with FlakyEvery=1")
	}
	if !strings.Contains(second, `class="invite"`) {
		t.Error("second render must include the invite block")
	}
}

func extractAttr(body, attr string) string {
	return between(body, attr+`="`, `"`)
}

func between(s, a, b string) string {
	i := strings.Index(s, a)
	if i < 0 {
		return ""
	}
	s = s[i+len(a):]
	j := strings.Index(s, b)
	if j < 0 {
		return ""
	}
	return s[:j]
}
