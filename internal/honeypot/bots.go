// Package honeypot implements the paper's dynamic analysis (§3, §4.2):
// per-bot isolated guilds seeded with canary tokens and a realistic
// conversation feed, driven end-to-end over the platform gateway, with
// triggers collected by the canary service and attributed through the
// guild-name identifier.
package honeypot

import (
	"net/http"
	"strings"
	"sync"

	"repro/internal/botsdk"
	"repro/internal/canary"
)

// BotRunner drives one connected bot session for the duration of an
// experiment. Start must not block. Stop tears the behaviour down: it
// takes on no new work and returns once the work already under way,
// including any message that work posts, has finished.
type BotRunner interface {
	Start(sess *botsdk.Session, env BotEnv)
	Stop()
}

// BotEnv is what a (possibly malicious) bot knows about the outside
// world: an HTTP client for visiting links and the mail relay its
// owner uses.
type BotEnv struct {
	HTTP      *http.Client
	MailRelay string
	Prefix    string
}

// IdleBot connects and does nothing — the offline/unused bots the
// paper found dominating the lower-voted listing tiers.
type IdleBot struct{}

// Start implements BotRunner.
func (IdleBot) Start(*botsdk.Session, BotEnv) {}

// Stop implements BotRunner.
func (IdleBot) Stop() {}

// ResponderBot answers its prefix commands — a benign, functioning bot.
// It touches nothing it is not asked about, so it never trips a token.
type ResponderBot struct{}

// Start implements BotRunner.
func (ResponderBot) Start(sess *botsdk.Session, env BotEnv) {
	prefix := env.Prefix
	if prefix == "" {
		prefix = "!"
	}
	sess.OnMessage(func(s *botsdk.Session, m *botsdk.Message) {
		if m.AuthorBot || !strings.HasPrefix(m.Content, prefix) {
			return
		}
		cmd := strings.TrimPrefix(strings.Fields(m.Content)[0], prefix)
		switch cmd {
		case "help":
			s.Send(m.ChannelID, "commands: "+prefix+"help, "+prefix+"info")
		case "info":
			s.Send(m.ChannelID, s.BotName()+" reporting for duty")
		}
	})
}

// Stop implements BotRunner.
func (ResponderBot) Stop() {}

// SnoopBot models the Melonian case: it reads everything posted in its
// guilds, opens documents (resolving their external references the way
// a document preview does), visits posted links, and mails posted
// addresses. After rifling through a document it posts the giveaway
// human message the paper observed — the owner logged in as the bot.
type SnoopBot struct {
	// Giveaway is posted after the first document is opened; defaults
	// to the message from §4.2.
	Giveaway string
	// AttemptPersistence makes the snoop mint a webhook on the first
	// channel it sees — an exfiltration endpoint that survives its own
	// uninstallation. Succeeds only if the bot was granted
	// manage-webhooks; either way the attempt lands in the audit log.
	AttemptPersistence bool

	mu        sync.Mutex
	stopped   bool
	gaveaway  bool
	persisted bool
	wg        sync.WaitGroup
}

// DefaultGiveaway is the §4.2 chat line that revealed a human operator
// behind the chatbot account.
const DefaultGiveaway = "wtf is this bro"

// Start implements BotRunner.
func (b *SnoopBot) Start(sess *botsdk.Session, env BotEnv) {
	if b.Giveaway == "" {
		b.Giveaway = DefaultGiveaway
	}
	sess.OnMessage(func(s *botsdk.Session, m *botsdk.Message) {
		if m.AuthorBot || !b.track() {
			return
		}
		// Handlers run on the session's read loop; inspection performs
		// blocking round-trips (attachment fetches), so it must not
		// block event delivery.
		go func() {
			defer b.wg.Done()
			b.inspect(s, env, m)
		}()
	})
}

// Stop implements BotRunner. It waits for in-flight inspections,
// which still post their giveaway.
func (b *SnoopBot) Stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.wg.Wait()
}

// track registers a new inspection unless the bot has stopped. Checking
// and adding under one lock keeps every Add ahead of Stop's Wait.
func (b *SnoopBot) track() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return false
	}
	b.wg.Add(1)
	return true
}

func (b *SnoopBot) claimPersistence() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.persisted {
		return false
	}
	b.persisted = true
	return true
}

func (b *SnoopBot) claimGiveaway() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gaveaway {
		return false
	}
	b.gaveaway = true
	return true
}

// inspect is the snooping routine: follow links, harvest addresses,
// open attachments.
func (b *SnoopBot) inspect(s *botsdk.Session, env BotEnv, m *botsdk.Message) {
	client := env.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	if b.AttemptPersistence && b.claimPersistence() {
		// Best-effort: denied unless the bot holds manage-webhooks.
		s.CreateWebhook(m.ChannelID, "totally-legit-updates")
	}
	for _, u := range canary.ExtractURLs(m.Content) {
		if resp, err := client.Get(u); err == nil {
			resp.Body.Close()
		}
	}
	if env.MailRelay != "" {
		for _, addr := range canary.ExtractEmails(m.Content) {
			_ = canary.SendMail(client, env.MailRelay, addr, "hey")
		}
	}
	openedDoc := false
	for _, att := range m.Attachments {
		fetched, err := s.FetchAttachment(m.ChannelID, m.ID, att.ID)
		if err != nil {
			continue
		}
		var refs []string
		switch {
		case strings.HasSuffix(att.Filename, ".docx"):
			if r, err := canary.ExternalRefsFromWord(fetched.Data); err == nil {
				refs = r
				openedDoc = true
			}
		case strings.HasSuffix(att.Filename, ".pdf"):
			refs = canary.URIsFromPDF(fetched.Data)
			if len(refs) > 0 {
				openedDoc = true
			}
		}
		for _, u := range refs {
			if resp, err := client.Get(u); err == nil {
				resp.Body.Close()
			}
		}
	}
	if openedDoc && b.claimGiveaway() {
		// The human-operator giveaway from the paper, posted once.
		s.Send(m.ChannelID, b.Giveaway)
	}
}
