package canary

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestService(t *testing.T) (*Service, *Minter) {
	t.Helper()
	svc, err := NewService("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, svc.NewMinter("canary.test", SequentialIDs("tok"))
}

func TestMintSetCoversAllKinds(t *testing.T) {
	_, m := newTestService(t)
	set := m.MintSet("guild-melonian")
	if len(set) != 4 {
		t.Fatalf("MintSet = %d tokens", len(set))
	}
	kinds := make(map[Kind]bool)
	for _, tok := range set {
		kinds[tok.Kind] = true
		if tok.GuildTag != "guild-melonian" {
			t.Errorf("token guild tag = %q", tok.GuildTag)
		}
		if tok.ID == "" {
			t.Error("empty token ID")
		}
	}
	for _, k := range Kinds {
		if !kinds[k] {
			t.Errorf("kind %s missing from set", k)
		}
	}
	email := set[1]
	if email.Kind != KindEmail || !strings.HasSuffix(email.Address, "@canary.test") {
		t.Errorf("email token = %+v", email)
	}
}

func TestURLTriggerAttribution(t *testing.T) {
	svc, m := newTestService(t)
	tok := m.Mint(KindURL, "guild-a")
	other := m.Mint(KindURL, "guild-b")
	resp, err := http.Get(tok.TriggerURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	trs := svc.TriggersFor("guild-a")
	if len(trs) != 1 {
		t.Fatalf("guild-a triggers = %d", len(trs))
	}
	if trs[0].TokenID != tok.ID || trs[0].Kind != KindURL || trs[0].Via != "http" {
		t.Errorf("trigger = %+v", trs[0])
	}
	if got := svc.TriggersFor("guild-b"); len(got) != 0 {
		t.Errorf("guild-b got %d spurious triggers", len(got))
	}
	_ = other
}

func TestUnknownTokenIsNoise(t *testing.T) {
	svc, _ := newTestService(t)
	resp, err := http.Get(svc.BaseURL() + "/t/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := svc.Triggers(); len(got) != 0 {
		t.Errorf("unknown ID recorded as trigger: %+v", got)
	}
}

func TestEmailTriggerViaRelay(t *testing.T) {
	svc, m := newTestService(t)
	tok := m.Mint(KindEmail, "guild-mail")
	if err := SendMail(nil, svc.BaseURL(), tok.Address, "hi there"); err != nil {
		t.Fatal(err)
	}
	trs := svc.TriggersFor("guild-mail")
	if len(trs) != 1 || trs[0].Via != "smtp" || trs[0].Kind != KindEmail {
		t.Fatalf("mail trigger = %+v", trs)
	}
	// Malformed recipients are rejected.
	if err := SendMail(nil, svc.BaseURL(), "not-an-address", "x"); err == nil {
		t.Error("relay accepted malformed recipient")
	}
}

func TestWordDocumentRoundTrip(t *testing.T) {
	svc, m := newTestService(t)
	tok := m.Mint(KindWord, "guild-doc")
	doc, err := WordDocument(tok, "Q3 planning notes — do not share")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 || string(doc[:2]) != "PK" {
		t.Fatal("not a zip container")
	}
	refs, err := ExternalRefsFromWord(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != tok.TriggerURL {
		t.Fatalf("external refs = %v, want [%s]", refs, tok.TriggerURL)
	}
	// "Open" the document the way a snooping consumer does.
	resp, err := http.Get(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if trs := svc.TriggersFor("guild-doc"); len(trs) != 1 || trs[0].Kind != KindWord {
		t.Fatalf("doc trigger = %+v", trs)
	}
	// Kind mismatch is rejected.
	if _, err := WordDocument(m.Mint(KindPDF, "g"), "x"); err == nil {
		t.Error("WordDocument accepted a pdf token")
	}
}

func TestPDFDocumentRoundTrip(t *testing.T) {
	svc, m := newTestService(t)
	tok := m.Mint(KindPDF, "guild-pdf")
	pdf, err := PDFDocument(tok, "Invoice #42 (confidential)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(pdf), "%PDF-1.4") || !strings.Contains(string(pdf), "%%EOF") {
		t.Fatal("malformed PDF envelope")
	}
	uris := URIsFromPDF(pdf)
	if len(uris) != 1 || uris[0] != tok.TriggerURL {
		t.Fatalf("pdf URIs = %v", uris)
	}
	resp, err := http.Get(uris[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if trs := svc.TriggersFor("guild-pdf"); len(trs) != 1 || trs[0].Kind != KindPDF {
		t.Fatalf("pdf trigger = %+v", trs)
	}
	if _, err := PDFDocument(m.Mint(KindWord, "g"), "x"); err == nil {
		t.Error("PDFDocument accepted a word token")
	}
}

func TestPDFEscaping(t *testing.T) {
	_, m := newTestService(t)
	tok := m.Mint(KindPDF, "guild-esc")
	pdf, err := PDFDocument(tok, `body with (parens) and \backslash`)
	if err != nil {
		t.Fatal(err)
	}
	uris := URIsFromPDF(pdf)
	if len(uris) != 1 || uris[0] != tok.TriggerURL {
		t.Fatalf("escaped-body pdf URIs = %v", uris)
	}
}

func TestExtractURLsAndEmails(t *testing.T) {
	text := `check http://example.test/a and https://example.test/b?q=1,
write to alice@corp.test or bob.smith+x@mail.example.org! end.`
	urls := ExtractURLs(text)
	if len(urls) != 2 || !strings.HasSuffix(urls[1], "q=1,") && len(urls) != 2 {
		// trailing punctuation behaviour is regex-defined; just assert count+prefixes
		t.Logf("urls = %v", urls)
	}
	if len(urls) != 2 || !strings.HasPrefix(urls[0], "http://example.test/a") {
		t.Errorf("ExtractURLs = %v", urls)
	}
	emails := ExtractEmails(text)
	if len(emails) != 2 || emails[0] != "alice@corp.test" {
		t.Errorf("ExtractEmails = %v", emails)
	}
	if got := ExtractURLs("no links here"); got != nil {
		t.Errorf("false URL positives: %v", got)
	}
}

func TestWatchStreamsTriggers(t *testing.T) {
	svc, m := newTestService(t)
	tok := m.Mint(KindURL, "guild-live")
	ch := svc.Watch()
	resp, err := http.Get(tok.TriggerURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case trg := <-ch:
		if trg.GuildTag != "guild-live" {
			t.Errorf("watched trigger = %+v", trg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no trigger streamed")
	}
}

func TestDeterministicIDs(t *testing.T) {
	a := SequentialIDs("x")
	if a() != "x000001" || a() != "x000002" {
		t.Error("SequentialIDs not sequential")
	}
	r := RandomIDs()
	if r() == r() {
		t.Error("RandomIDs collided immediately")
	}
}

// TestSequentialIDsConcurrent draws IDs from many goroutines at once,
// as parallel honeypot experiments sharing one minter do: every ID must
// be unique (and, under -race, the draws must not race).
func TestSequentialIDsConcurrent(t *testing.T) {
	const goroutines, perG = 16, 200
	next := SequentialIDs("c")
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perG {
				ids[g] = append(ids[g], next())
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*perG)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("ID %s drawn twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("drew %d unique IDs, want %d", len(seen), goroutines*perG)
	}
}

func TestMalformedArtifacts(t *testing.T) {
	if _, err := ExternalRefsFromWord([]byte("definitely not a zip")); err == nil {
		t.Error("ExternalRefsFromWord accepted garbage")
	}
	if uris := URIsFromPDF([]byte("not a pdf")); uris != nil {
		t.Errorf("URIsFromPDF on garbage = %v", uris)
	}
}
