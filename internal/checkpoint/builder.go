package checkpoint

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/scraper"
)

// Builder accumulates one run's snapshot so that saving it never
// re-encodes settled work. Settled work is append-only and never
// mutated once noted, so each item is JSON-encoded exactly once, when
// it is added; a save writes the cached fragments, in order, as a
// payload byte-identical to the one Encode produces for the same
// snapshot.
//
// The settled-work fields of Snapshot() — BotIDs, Records,
// CollectQuarantine, CodeLinks, CodeLinkErrs, Verdicts and
// HoneypotQuarantine — must change only through the Builder's methods.
// The rest (identity, Completed, BudgetLeft) is small and encoded
// afresh at every save, so callers set it on Snapshot() directly.
//
// A Builder is not safe for concurrent use.
type Builder struct {
	snap *Snapshot

	botIDs       []byte // the bot_ids field, encoded once
	records      fragList
	collectQ     fragList
	codeLinks    fragMap
	codeLinkErrs fragMap
	verdicts     fragList
	honeypotQ    fragList

	// err is the first item that failed to encode. It fails every
	// later save: a snapshot missing settled work must never land.
	err error
}

// NewBuilder starts a builder over base — a loaded snapshot when
// resuming, an identity-only one otherwise — encoding base's settled
// work once. The builder takes ownership of base.
func NewBuilder(base *Snapshot) *Builder {
	if base.Schema == 0 {
		base.Schema = SchemaVersion
	}
	b := &Builder{
		snap:         base,
		records:      fragList{open: fieldOpen("records", '[')},
		collectQ:     fragList{open: fieldOpen("collect_quarantine", '[')},
		codeLinks:    fragMap{open: fieldOpen("code_links", '{')},
		codeLinkErrs: fragMap{open: fieldOpen("code_link_errs", '{')},
		verdicts:     fragList{open: fieldOpen("verdicts", '[')},
		honeypotQ:    fragList{open: fieldOpen("honeypot_quarantine", '[')},
	}
	b.encodeBotIDs()
	for _, r := range base.Records {
		b.note(b.records.add(r))
	}
	for _, q := range base.CollectQuarantine {
		b.note(b.collectQ.add(q))
	}
	for link, ra := range base.CodeLinks {
		b.note(b.codeLinks.set(link, ra))
	}
	for link, e := range base.CodeLinkErrs {
		b.note(b.codeLinkErrs.set(link, e))
	}
	for _, v := range base.Verdicts {
		b.note(b.verdicts.add(v))
	}
	for _, q := range base.HoneypotQuarantine {
		b.note(b.honeypotQ.add(q))
	}
	return b
}

// Snapshot returns the live snapshot the builder accumulates.
func (b *Builder) Snapshot() *Snapshot { return b.snap }

// SetBotIDs records the listing discovery order.
func (b *Builder) SetBotIDs(ids []int) {
	b.snap.BotIDs = append([]int(nil), ids...)
	b.encodeBotIDs()
}

// AddRecord appends one settled collect record.
func (b *Builder) AddRecord(rec *scraper.Record) {
	b.snap.Records = append(b.snap.Records, rec)
	b.note(b.records.add(rec))
}

// AddCollectQuarantine appends one collect-stage quarantine entry.
func (b *Builder) AddCollectQuarantine(q QEntry) {
	b.snap.CollectQuarantine = append(b.snap.CollectQuarantine, q)
	b.note(b.collectQ.add(q))
}

// SetCodeLink records one settled code-link analysis.
func (b *Builder) SetCodeLink(link string, ra *codeanalysis.RepoAnalysis) {
	if b.snap.CodeLinks == nil {
		b.snap.CodeLinks = make(map[string]*codeanalysis.RepoAnalysis)
	}
	b.snap.CodeLinks[link] = ra
	b.note(b.codeLinks.set(link, ra))
}

// SetCodeLinkErr records one code link abandoned after retries.
func (b *Builder) SetCodeLinkErr(link, errText string) {
	if b.snap.CodeLinkErrs == nil {
		b.snap.CodeLinkErrs = make(map[string]string)
	}
	b.snap.CodeLinkErrs[link] = errText
	b.note(b.codeLinkErrs.set(link, errText))
}

// AddVerdict appends one settled honeypot verdict.
func (b *Builder) AddVerdict(v *honeypot.Verdict) {
	b.snap.Verdicts = append(b.snap.Verdicts, v)
	b.note(b.verdicts.add(v))
}

// AddHoneypotQuarantine appends one honeypot-stage quarantine entry.
func (b *Builder) AddHoneypotQuarantine(q QEntry) {
	b.snap.HoneypotQuarantine = append(b.snap.HoneypotQuarantine, q)
	b.note(b.honeypotQ.add(q))
}

func (b *Builder) note(err error) {
	if err != nil && b.err == nil {
		b.err = fmt.Errorf("checkpoint: encode: %w", err)
	}
}

// encodeBotIDs encodes the bot_ids field, key included, once.
func (b *Builder) encodeBotIDs() {
	b.botIDs = nil
	if len(b.snap.BotIDs) > 0 {
		enc, err := json.Marshal(b.snap.BotIDs)
		b.note(err)
		b.botIDs = append([]byte(`,"bot_ids":`), enc...)
	}
}

// encode lays out the payload as pieces, in json.Marshal(Snapshot)'s
// field order and omitempty rules; only the scalar fields and
// budget_left are encoded here. The pieces alias the builder's buffers
// and are valid until the next change to the builder.
func (b *Builder) encode() ([][]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	s := b.snap
	runID, err := json.Marshal(s.RunID)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	h := []byte(`{"schema":`)
	h = strconv.AppendInt(h, int64(s.Schema), 10)
	h = append(h, `,"run_id":`...)
	h = append(h, runID...)
	h = append(h, `,"seed":`...)
	h = strconv.AppendInt(h, s.Seed, 10)
	h = append(h, `,"num_bots":`...)
	h = strconv.AppendInt(h, int64(s.NumBots), 10)
	h = append(h, `,"honeypot_sample":`...)
	h = strconv.AppendInt(h, int64(s.HoneypotSample), 10)
	if s.Completed {
		h = append(h, `,"completed":true`...)
	}

	p := [][]byte{h}
	if len(b.botIDs) > 0 {
		p = append(p, b.botIDs)
	}
	p = b.records.appendPieces(p)
	p = b.collectQ.appendPieces(p)
	p = b.codeLinks.appendPieces(p)
	p = b.codeLinkErrs.appendPieces(p)
	p = b.verdicts.appendPieces(p)
	p = b.honeypotQ.appendPieces(p)
	if len(s.BudgetLeft) > 0 {
		budget, err := json.Marshal(s.BudgetLeft)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: encode: %w", err)
		}
		p = append(p, append([]byte(`,"budget_left":`), budget...))
	}
	return append(p, closeObject), nil
}

var (
	closeArray  = []byte("]")
	closeObject = []byte("}")
)

// fieldOpen returns `,"name":` followed by the opening bracket, for a
// field name that needs no escaping.
func fieldOpen(name string, bracket byte) []byte {
	return append([]byte(`,"`+name+`":`), bracket)
}

// fragList is a JSON array field: its elements, each encoded once and
// joined by commas as they arrive.
type fragList struct {
	open []byte // `,"name":[`
	buf  []byte
}

func (l *fragList) add(v any) error {
	enc, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(l.buf) > 0 {
		l.buf = append(l.buf, ',')
	}
	l.buf = append(l.buf, enc...)
	return nil
}

// appendPieces appends the field's pieces, or none for an empty list
// (omitempty).
func (l *fragList) appendPieces(p [][]byte) [][]byte {
	if len(l.buf) == 0 {
		return p
	}
	return append(p, l.open, l.buf, closeArray)
}

// fragMap is a JSON object field: its members, each encoded once as
// `"key":value`. Keys arrive in any order but are emitted sorted, as
// encoding/json sorts map keys; the joined body is rebuilt only after
// a change.
type fragMap struct {
	open    []byte   // `,"name":{`
	keys    []string // sorted
	members map[string][]byte
	body    []byte
	dirty   bool
}

func (m *fragMap) set(key string, v any) error {
	val, err := json.Marshal(v)
	if err != nil {
		return err
	}
	member, _ := json.Marshal(key) // a string always encodes
	member = append(append(member, ':'), val...)
	if m.members == nil {
		m.members = make(map[string][]byte)
	}
	if _, ok := m.members[key]; !ok {
		i, _ := slices.BinarySearch(m.keys, key)
		m.keys = slices.Insert(m.keys, i, key)
	}
	m.members[key] = member
	m.dirty = true
	return nil
}

// appendPieces appends the field's pieces, or none for an empty map
// (omitempty).
func (m *fragMap) appendPieces(p [][]byte) [][]byte {
	if len(m.keys) == 0 {
		return p
	}
	if m.dirty {
		m.body = m.body[:0]
		for i, k := range m.keys {
			if i > 0 {
				m.body = append(m.body, ',')
			}
			m.body = append(m.body, m.members[k]...)
		}
		m.dirty = false
	}
	return append(p, m.open, m.body, closeObject)
}
