package scraper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// detailPage renders a minimal bot detail page, optionally without the
// invite anchor.
func detailPage(id int, withInvite bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><body><div id="bot-detail" data-bot-id="%d">
<h1 class="bot-name">bot-%d</h1><p class="description">d</p>
<span class="guild-count">1</span><span class="vote-count">1</span>
<span class="prefix">!</span>`, id, id)
	if withInvite {
		fmt.Fprintf(&b, `<a class="invite" href="/oauth/authorize?bot_id=%d&amp;permissions=1">Invite</a>`, id)
	}
	b.WriteString(`</div></body></html>`)
	return b.String()
}

func listingPage(ids ...int) string {
	var b strings.Builder
	b.WriteString(`<html><body><ul>`)
	for _, id := range ids {
		fmt.Fprintf(&b, `<li class="bot-card" data-bot-id="%d">bot-%d</li>`, id, id)
	}
	b.WriteString(`</ul></body></html>`)
	return b.String()
}

// TestIncompleteWhenInviteNeverRenders is the regression test for the
// silent permission-less record: a detail page whose invite element is
// missing on every render must yield a record marked Incomplete after
// retries are exhausted, not a clean-looking invalid record.
func TestIncompleteWhenInviteNeverRenders(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/bot/") {
			io.WriteString(w, detailPage(7, false))
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	rec, err := ScrapeBotContext(context.Background(), c, 7, 2)
	if err != nil {
		t.Fatalf("ScrapeBotContext: %v", err)
	}
	if !rec.Incomplete {
		t.Fatal("record not marked Incomplete though the invite never rendered")
	}
	if rec.InvalidReason != InvalidMissingLink {
		t.Fatalf("InvalidReason = %q, want %q", rec.InvalidReason, InvalidMissingLink)
	}
	if c.Stats().Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (every retry consumed)", c.Stats().Retries)
	}

	// Control: with the invite present, the record is complete.
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/bot/"):
			io.WriteString(w, detailPage(7, true))
		case r.URL.Path == "/oauth/authorize":
			io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv2.Close()
	c2 := newTestClient(t, srv2.URL, nil)
	rec2, err := ScrapeBotContext(context.Background(), c2, 7, 2)
	if err != nil {
		t.Fatalf("ScrapeBotContext: %v", err)
	}
	if rec2.Incomplete {
		t.Fatal("complete record wrongly marked Incomplete")
	}
	if !rec2.PermsValid {
		t.Fatal("control record should have valid permissions")
	}
}

// TestCrawlQuarantinesFailingBot: one bot's detail endpoint is a
// permanent 503 storm. The lenient crawl must return every other
// record and quarantine exactly that bot; the strict crawl must abort.
func TestCrawlQuarantinesFailingBot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/bots"):
			io.WriteString(w, listingPage(1, 2, 3))
		case r.URL.Path == "/bot/2":
			http.Error(w, "storm", http.StatusServiceUnavailable)
		case strings.HasPrefix(r.URL.Path, "/bot/"):
			io.WriteString(w, detailPage(99, true))
		case r.URL.Path == "/oauth/authorize":
			io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	res, err := crawl(context.Background(), c, Config{Retries: 1}, 2)
	if err != nil {
		t.Fatalf("lenient crawl errored: %v", err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(res.Records))
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].BotID != 2 {
		t.Fatalf("quarantined = %+v, want bot 2 only", res.Quarantined)
	}
	if !errors.Is(res.Quarantined[0].Err, ErrUnavailable) {
		t.Fatalf("quarantine error = %v, want ErrUnavailable", res.Quarantined[0].Err)
	}

	// Strict mode restores the historical abort-on-first-failure.
	c2 := newTestClient(t, srv.URL, nil)
	if _, err := crawl(context.Background(), c2, Config{Retries: 1, Strict: true}, 2); err == nil {
		t.Fatal("strict crawl should abort on the failing bot")
	}
}

// TestPartialListingSurvives: pagination dies on page 2; the lenient
// crawl still scrapes everything page 1 discovered and reports ListErr.
func TestPartialListingSurvives(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/bots"):
			if r.URL.Query().Get("page") == "1" {
				io.WriteString(w, listingPage(1, 2)+`<a id="next-page" href="/bots?page=2">Next</a>`)
				return
			}
			http.Error(w, "storm", http.StatusServiceUnavailable)
		case strings.HasPrefix(r.URL.Path, "/bot/"):
			io.WriteString(w, detailPage(1, true))
		case r.URL.Path == "/oauth/authorize":
			io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	res, err := crawl(context.Background(), c, Config{Retries: 1}, 2)
	if err != nil {
		t.Fatalf("lenient crawl errored: %v", err)
	}
	if res.ListErr == nil {
		t.Fatal("ListErr not set for a dead page 2")
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %d, want the 2 bots page 1 listed", len(res.Records))
	}

	// Strict mode propagates the pagination failure.
	c2 := newTestClient(t, srv.URL, nil)
	if _, err := crawl(context.Background(), c2, Config{Retries: 1, Strict: true}, 2); err == nil {
		t.Fatal("strict crawl should fail on a dead listing page")
	}
}

// TestCrawlCancellationStillAborts: lenient mode never swallows
// context cancellation.
func TestCrawlCancellationStillAborts(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/bots") {
			io.WriteString(w, listingPage(1, 2, 3))
			return
		}
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := crawl(ctx, c, Config{Retries: 1}, 2)
	if err == nil {
		t.Fatal("cancelled crawl returned nil error")
	}
}
