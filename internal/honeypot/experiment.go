package honeypot

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/botsdk"
	"repro/internal/canary"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/permissions"
	"repro/internal/platform"
	"repro/internal/retry"
	"repro/internal/scraper"
)

// Config tunes one honeypot experiment, defaulting to the paper's
// setup: 5 virtual users, 25 conversational messages, all four token
// kinds, each bot in its own isolated private guild named after it.
type Config struct {
	Personas     int           // virtual users per guild (paper: 5)
	FeedMessages int           // conversational messages (paper: 25)
	Settle       time.Duration // how long to watch for triggers after planting
	PollEvery    time.Duration
	// Solver "solves the reCAPTCHA" required to add a bot to a guild
	// (§4.2); nil skips the step.
	Solver scraper.Solver
}

// DefaultConfig returns the paper's parameters with test-friendly
// timing.
func DefaultConfig() Config {
	return Config{
		Personas:     5,
		FeedMessages: 25,
		Settle:       750 * time.Millisecond,
		PollEvery:    10 * time.Millisecond,
	}
}

// Subject is one bot under test. Runner is process state, not
// evidence: it is excluded from serialized verdicts, so a verdict
// restored from a checkpoint carries a nil Runner.
type Subject struct {
	ListingID int
	Name      string
	Perms     permissions.Permission
	Prefix    string
	Runner    BotRunner `json:"-"`
}

// Verdict is the outcome of one experiment.
type Verdict struct {
	Subject   Subject
	GuildTag  string
	Triggered bool
	// Triggers lists the recorded canary hits for this guild.
	Triggers []canary.Trigger
	// TriggeredKinds is the distinct token kinds tripped.
	TriggeredKinds []canary.Kind
	// BotMessages are messages the bot account posted that are not
	// responses to commands — the "wtf is this bro" giveaway channel.
	BotMessages []string
	// Responded reports whether the bot answered the planted command
	// (liveness signal).
	Responded bool
	// WebhookPersistence is true when the audit log shows the bot
	// creating a webhook — an exfiltration endpoint that would outlive
	// the bot's own installation.
	WebhookPersistence bool
}

// Env bundles the infrastructure an experiment runs against.
type Env struct {
	Platform *platform.Platform
	Gateway  string // gateway dial address
	Canary   *canary.Service
	Minter   *canary.Minter
	Feed     *corpus.Generator
	// Obs receives experiment counters and the settle-wait histogram;
	// nil uses the process-default registry.
	Obs *obs.Registry
	// Breakers, when set, guards the gateway dial with a circuit
	// breaker keyed "gateway <addr>": once the gateway is persistently
	// unreachable, remaining experiments fail fast (and quarantine)
	// instead of each paying the full dial timeout.
	Breakers *retry.BreakerSet
}

// Run executes one isolated honeypot experiment for a subject,
// following §4.2: create a private guild named after the chatbot, add
// personas, install the bot (solving the captcha), post a believable
// conversation, plant the four tokens, and watch for triggers.
func Run(env Env, cfg Config, sub Subject) (*Verdict, error) {
	return RunContext(context.Background(), env, cfg, sub)
}

// RunContext is Run with cancellation: the trigger-watch settle loop
// and the install-captcha solve abort as soon as ctx is done.
func RunContext(ctx context.Context, env Env, cfg Config, sub Subject) (*Verdict, error) {
	if cfg.Personas <= 0 {
		cfg.Personas = 5
	}
	if cfg.FeedMessages <= 0 {
		cfg.FeedMessages = 25
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 10 * time.Millisecond
	}
	reg := obs.Or(env.Obs)
	reg.Counter("honeypot_experiments_started_total").Inc()
	p := env.Platform

	guildTag := "hp-" + sub.Name
	ctx = journal.WithExperiment(journal.WithBot(ctx, sub.ListingID, sub.Name), guildTag)
	journal.Emit(ctx, "honeypot", journal.KindExperimentStarted, map[string]any{
		"personas": cfg.Personas,
		"perms":    sub.Perms.Value(),
		"prefix":   sub.Prefix,
	})
	operator := p.CreateUser("operator-" + sub.Name)
	p.VerifyUser(operator.ID)
	guild, err := p.CreateGuild(operator.ID, guildTag, true)
	if err != nil {
		return nil, fmt.Errorf("honeypot: create guild: %w", err)
	}
	var general *platform.Channel
	for _, ch := range guild.Channels {
		general = ch
	}

	// Personas join via invite; mobile verification is "completed
	// manually" by the experimenter (§4.2), modelled as VerifyUser.
	personas := env.Feed.Personas(cfg.Personas)
	users := make([]*platform.User, 0, cfg.Personas)
	invite, err := p.CreateInvite(operator.ID, guild.ID)
	if err != nil {
		return nil, fmt.Errorf("honeypot: invite: %w", err)
	}
	for _, per := range personas {
		u := p.CreateUser(per.Username)
		p.VerifyUser(u.ID)
		if _, err := p.RedeemInvite(u.ID, invite); err != nil {
			return nil, fmt.Errorf("honeypot: persona join: %w", err)
		}
		users = append(users, u)
	}

	// "To add a chatbot to the guild, we need to solve a Google
	// reCAPTCHA" — paid out to the solving service.
	if cfg.Solver != nil {
		endSolve := trace.StartOpDetail(ctx, "captcha_solve", sub.Name)
		_, err := scraper.SolveContext(ctx, cfg.Solver, installChallenge(sub.Name))
		endSolve()
		if err != nil {
			return nil, fmt.Errorf("honeypot: install captcha: %w", err)
		}
	}
	bot, err := p.RegisterBot(operator.ID, sub.Name)
	if err != nil {
		return nil, fmt.Errorf("honeypot: register bot: %w", err)
	}
	if _, err := p.InstallBot(operator.ID, guild.ID, bot.ID, sub.Perms); err != nil {
		return nil, fmt.Errorf("honeypot: install bot: %w", err)
	}

	gwBreaker := env.Breakers.For("gateway " + env.Gateway)
	if berr := gwBreaker.Allow(); berr != nil {
		return nil, fmt.Errorf("honeypot: connect bot: %w", berr)
	}
	sess, err := botsdk.Dial(env.Gateway, bot.Token, botsdk.Options{RequestTimeout: 5 * time.Second})
	gwBreaker.Record(err != nil)
	if err != nil {
		return nil, fmt.Errorf("honeypot: connect bot: %w", err)
	}
	defer sess.Close()
	runner := sub.Runner
	if runner == nil {
		runner = IdleBot{}
	}
	runner.Start(sess, BotEnv{MailRelay: env.Canary.BaseURL(), Prefix: sub.Prefix})
	stopRunner := sync.OnceFunc(runner.Stop)
	defer stopRunner()

	// A believable conversation feed (§3): alternating persona messages.
	exchanges := env.Feed.Conversation(personas, cfg.FeedMessages)
	byName := make(map[string]*platform.User, len(users))
	for i, per := range personas {
		byName[per.Username] = users[i]
	}
	for _, ex := range exchanges {
		if _, err := p.SendMessage(byName[ex.Author.Username].ID, general.ID, ex.Text); err != nil {
			return nil, fmt.Errorf("honeypot: feed: %w", err)
		}
	}

	// Plant the four canary tokens.
	tokens := env.Minter.MintSet(guildTag)
	if err := plantTokens(p, env, users, general.ID, tokens); err != nil {
		return nil, err
	}

	// A command message so responder-style bots show liveness.
	prefix := sub.Prefix
	if prefix == "" {
		prefix = "!"
	}
	if _, err := p.SendMessage(users[0].ID, general.ID, prefix+"help"); err != nil {
		return nil, fmt.Errorf("honeypot: command: %w", err)
	}

	// Watch for triggers until every kind fired or the settle window
	// elapses.
	settleStart := time.Now()
	endSettle := trace.StartOpDetail(ctx, "honeypot_settle", guildTag)
	err = watchTriggers(ctx, env, guildTag, len(tokens), cfg)
	endSettle()
	if err != nil {
		return nil, err
	}
	reg.Histogram("honeypot_settle_seconds").Observe(time.Since(settleStart))
	reg.Counter("honeypot_experiments_completed_total").Inc()

	// The watch can end while the bot is still acting on what it saw —
	// a snoop trips its last token before posting its giveaway. Stopping
	// the runner waits for that work, so the forensics read below sees
	// every message the bot had under way.
	stopRunner()
	v, err := verdictFor(p, env, sub, guildTag, guild.ID, general.ID, bot.ID)
	if err != nil {
		return nil, err
	}
	kinds := make([]string, 0, len(v.TriggeredKinds))
	for _, k := range v.TriggeredKinds {
		kinds = append(kinds, k.String())
	}
	journal.Emit(ctx, "honeypot", journal.KindExperimentSettled, map[string]any{
		"triggered":       v.Triggered,
		"trigger_count":   len(v.Triggers),
		"triggered_kinds": kinds,
		"responded":       v.Responded,
		"webhook_persist": v.WebhookPersistence,
	})
	return v, nil
}

// watchTriggers polls the canary service until every planted token
// fired, the settle window elapsed, or ctx was cancelled.
func watchTriggers(ctx context.Context, env Env, guildTag string, want int, cfg Config) error {
	deadline := time.NewTimer(cfg.Settle)
	defer deadline.Stop()
	tick := time.NewTicker(cfg.PollEvery)
	defer tick.Stop()
	for {
		if len(env.Canary.TriggersFor(guildTag)) >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return nil
		case <-tick.C:
		}
	}
}

// plantTokens posts the URL and email as chat and the documents as
// attachments, as §4.2 describes.
func plantTokens(p *platform.Platform, env Env, users []*platform.User, channelID platform.ID, tokens []canary.Token) error {
	poster := func(i int) platform.ID { return users[i%len(users)].ID }
	for i, tok := range tokens {
		switch tok.Kind {
		case canary.KindURL:
			if _, err := p.SendMessage(poster(i), channelID,
				"found this, worth a read: "+tok.TriggerURL); err != nil {
				return fmt.Errorf("honeypot: plant url: %w", err)
			}
		case canary.KindEmail:
			if _, err := p.SendMessage(poster(i), channelID,
				"dm me or mail "+tok.Address+" about the meetup"); err != nil {
				return fmt.Errorf("honeypot: plant email: %w", err)
			}
		case canary.KindWord:
			doc, err := canary.WordDocument(tok, "Team notes — salaries Q3 (do not share)")
			if err != nil {
				return err
			}
			if _, err := p.SendMessage(poster(i), channelID, "notes from the call",
				platform.Attachment{Filename: "notes.docx", ContentType: canary.WordMIME, Data: doc}); err != nil {
				return fmt.Errorf("honeypot: plant docx: %w", err)
			}
		case canary.KindPDF:
			pdf, err := canary.PDFDocument(tok, "Invoice 0042 — confidential")
			if err != nil {
				return err
			}
			if _, err := p.SendMessage(poster(i), channelID, "invoice attached",
				platform.Attachment{Filename: "invoice.pdf", ContentType: canary.PDFMIME, Data: pdf}); err != nil {
				return fmt.Errorf("honeypot: plant pdf: %w", err)
			}
		}
	}
	return nil
}

// verdictFor assembles the outcome after the settle window.
func verdictFor(p *platform.Platform, env Env, sub Subject, guildTag string, gID, channelID, botID platform.ID) (*Verdict, error) {
	v := &Verdict{Subject: sub, GuildTag: guildTag}
	v.Triggers = env.Canary.TriggersFor(guildTag)
	v.Triggered = len(v.Triggers) > 0
	seen := make(map[canary.Kind]bool)
	for _, trg := range v.Triggers {
		if !seen[trg.Kind] {
			seen[trg.Kind] = true
			v.TriggeredKinds = append(v.TriggeredKinds, trg.Kind)
		}
	}
	msgs, err := p.ChannelMessages(channelID)
	if err != nil {
		return nil, fmt.Errorf("honeypot: forensics read: %w", err)
	}
	for _, m := range msgs {
		if m.AuthorID != botID {
			continue
		}
		if strings.HasPrefix(m.Content, "commands: ") || strings.Contains(m.Content, "reporting for duty") {
			v.Responded = true
			continue
		}
		v.BotMessages = append(v.BotMessages, m.Content)
	}
	// Audit-log forensics: did the bot mint a persistence webhook?
	if entries, err := p.AuditLog(platform.Nil, gID); err == nil {
		for _, e := range entries {
			if e.Action == "webhook.create" && e.ActorID == botID {
				v.WebhookPersistence = true
			}
		}
	}
	return v, nil
}

func installChallenge(name string) string {
	return fmt.Sprintf("what is %d plus %d", 20+len(name)%10, 22)
}
