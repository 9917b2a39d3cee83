// Package canary implements the honeytoken machinery of the paper's
// dynamic analysis (§3): minting unique canary tokens of four kinds
// (URL, email address, Word document, PDF document), generating real
// artifact bytes whose "opening" phones home, and a trigger service
// that records each phone-home together with the guild identifier it
// was planted under.
package canary

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
)

// Kind is a canary token type. The paper's implementation "uses four
// canary tokens: email, URL, word, and PDF".
type Kind int

// Token kinds.
const (
	KindURL Kind = iota
	KindEmail
	KindWord
	KindPDF
)

// Kinds lists every token kind.
var Kinds = []Kind{KindURL, KindEmail, KindWord, KindPDF}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindURL:
		return "url"
	case KindEmail:
		return "email"
	case KindWord:
		return "word"
	case KindPDF:
		return "pdf"
	default:
		return "unknown"
	}
}

// Token is one minted canary.
type Token struct {
	ID       string // unique identifier embedded in the artifact
	Kind     Kind
	GuildTag string // the guild-name identifier tying triggers to a bot under test
	// TriggerURL is the URL whose retrieval registers a trigger (for
	// URL/Word/PDF kinds).
	TriggerURL string
	// Address is the canary mailbox (email kind only).
	Address string
}

// IDSource mints unique token identifiers. The default uses
// crypto/rand; tests install a deterministic source.
type IDSource func() string

// RandomIDs returns a crypto-random 16-hex-char ID source.
func RandomIDs() IDSource {
	return func() string {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic("canary: crypto/rand unavailable: " + err.Error())
		}
		return hex.EncodeToString(b[:])
	}
}

// SequentialIDs returns a deterministic ID source for tests, prefixed
// to stay unique across minters. Like RandomIDs it is safe for
// concurrent use: experiments running in parallel share one minter.
func SequentialIDs(prefix string) IDSource {
	var n atomic.Int64
	return func() string {
		return fmt.Sprintf("%s%06d", prefix, n.Add(1))
	}
}

// Minter mints tokens bound to a trigger service base URL.
type Minter struct {
	baseURL     string // e.g. http://127.0.0.1:port
	emailDomain string
	ids         IDSource
	onMint      func(Token) // optional registration hook
}

// NewMinter creates a minter. baseURL is the trigger service root;
// emailDomain forms canary mailbox addresses (default canary.invalid).
func NewMinter(baseURL, emailDomain string, ids IDSource) *Minter {
	if ids == nil {
		ids = RandomIDs()
	}
	if emailDomain == "" {
		emailDomain = "canary.invalid"
	}
	return &Minter{baseURL: strings.TrimRight(baseURL, "/"), emailDomain: emailDomain, ids: ids}
}

// Mint creates one token of the given kind for a guild identifier.
func (m *Minter) Mint(kind Kind, guildTag string) Token {
	id := m.ids()
	t := Token{ID: id, Kind: kind, GuildTag: guildTag}
	switch kind {
	case KindEmail:
		t.Address = fmt.Sprintf("%s@%s", id, m.emailDomain)
		// Mail to a canary address is detected by the mail path; the
		// service models it as a POST to /email/<id>.
		t.TriggerURL = fmt.Sprintf("%s/email/%s", m.baseURL, id)
	default:
		t.TriggerURL = fmt.Sprintf("%s/t/%s", m.baseURL, id)
	}
	if m.onMint != nil {
		m.onMint(t)
	}
	return t
}

// MintSet mints one token of every kind for a guild — the per-guild
// planting the paper performs ("Each guild was populated with a canary
// URL, email address, pdf and word document tokens").
func (m *Minter) MintSet(guildTag string) []Token {
	out := make([]Token, 0, len(Kinds))
	for _, k := range Kinds {
		out = append(out, m.Mint(k, guildTag))
	}
	return out
}

// urlPattern matches http(s) URLs inside chat text; bots use it to
// discover posted links.
var urlPattern = regexp.MustCompile(`https?://[^\s<>"']+`)

// ExtractURLs returns every URL found in free text.
func ExtractURLs(text string) []string {
	return urlPattern.FindAllString(text, -1)
}

// emailPattern matches mailbox addresses inside chat text.
var emailPattern = regexp.MustCompile(`[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}`)

// ExtractEmails returns every email address found in free text.
func ExtractEmails(text string) []string {
	return emailPattern.FindAllString(text, -1)
}
