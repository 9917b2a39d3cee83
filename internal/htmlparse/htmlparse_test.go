package htmlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<!DOCTYPE html>
<html>
<head><title>Bot listing</title><meta charset="utf-8"></head>
<body>
  <div id="header" class="nav top">
    <a href="/bots?page=2" class="next">Next &raquo;</a>
  </div>
  <ul class="bot-list">
    <li class="bot-card" data-bot-id="101">
      <span class="bot-name">Melonian</span>
      <a class="invite" href="/oauth?bot_id=101&amp;permissions=8">Invite</a>
      <a class="gh" href="https://github.example/dev/melonian">Source</a>
    </li>
    <li class="bot-card" data-bot-id="102">
      <span class="bot-name">HelperBot</span>
      <a class="invite" href="/oauth?bot_id=102&amp;permissions=3072">Invite</a>
    </li>
  </ul>
  <script>var x = "<li>not real</li>";</script>
  <!-- trailing comment -->
  <p>Total: 2 bots &amp; counting&#33;</p>
</body>
</html>`

func TestParseBasicStructure(t *testing.T) {
	doc := Parse(sample)
	title := doc.SelectFirst("title")
	if title == nil || title.Text() != "Bot listing" {
		t.Fatalf("title = %v", title)
	}
	cards := doc.ByClass("bot-card")
	if len(cards) != 2 {
		t.Fatalf("bot cards = %d, want 2", len(cards))
	}
	if id, _ := cards[0].Attr("data-bot-id"); id != "101" {
		t.Errorf("first card id = %q", id)
	}
}

func TestEntityHandling(t *testing.T) {
	doc := Parse(sample)
	p := doc.SelectFirst("p")
	if p == nil {
		t.Fatal("no <p>")
	}
	if got := p.Text(); got != "Total: 2 bots & counting!" {
		t.Errorf("entity text = %q", got)
	}
	// Entities inside attribute values.
	inv := doc.ByClass("invite")[0]
	href, _ := inv.Attr("href")
	if href != "/oauth?bot_id=101&permissions=8" {
		t.Errorf("href = %q", href)
	}
}

func TestScriptRawText(t *testing.T) {
	doc := Parse(sample)
	// The <li> inside the script must not become an element.
	if cards := doc.ByClass("bot-card"); len(cards) != 2 {
		t.Errorf("script content leaked elements: %d cards", len(cards))
	}
	script := doc.SelectFirst("script")
	if script == nil || !strings.Contains(script.Text(), "not real") {
		t.Error("script text lost")
	}
}

func TestByLocators(t *testing.T) {
	doc := Parse(sample)
	if n := doc.ByID("header"); n == nil || !n.HasClass("nav") || !n.HasClass("top") {
		t.Errorf("ByID/HasClass failed: %v", n)
	}
	if n := doc.ByID("missing"); n != nil {
		t.Error("ByID found a ghost")
	}
	if as := doc.ByTag("a"); len(as) != 4 {
		t.Errorf("ByTag(a) = %d, want 4", len(as))
	}
	if ns := doc.ByAttr("data-bot-id", "102"); len(ns) != 1 || ns[0].Text() != "HelperBot Invite" {
		t.Errorf("ByAttr = %v", ns)
	}
	if ns := doc.ByAttr("data-bot-id", ""); len(ns) != 2 {
		t.Errorf("ByAttr presence = %d", len(ns))
	}
	if ns := doc.ByText("melonian"); len(ns) == 0 {
		t.Error("ByText case-insensitive search failed")
	}
}

func TestSelectors(t *testing.T) {
	doc := Parse(sample)
	cases := []struct {
		sel  string
		want int
	}{
		{"li.bot-card", 2},
		{"ul.bot-list > li", 2},
		{"li a.invite", 2},
		{"#header a.next", 1},
		{"a[href]", 4},
		{`a[class=gh]`, 1},
		{"li.bot-card span.bot-name", 2},
		{"div.missing", 0},
		{"ul > span", 0}, // span is a grandchild, not a child
	}
	for _, c := range cases {
		if got := len(doc.Select(c.sel)); got != c.want {
			t.Errorf("Select(%q) = %d, want %d", c.sel, got, c.want)
		}
	}
	if n := doc.SelectFirst("span.bot-name"); n == nil || n.Text() != "Melonian" {
		t.Errorf("SelectFirst = %v", n)
	}
	if _, err := doc.RequireFirst("div#nope"); err != ErrNoSuchElement {
		t.Errorf("RequireFirst missing err = %v", err)
	}
	if n, err := doc.RequireFirst("title"); err != nil || n == nil {
		t.Errorf("RequireFirst present = %v, %v", n, err)
	}
}

func TestSelectorParsingErrors(t *testing.T) {
	doc := Parse(sample)
	for _, sel := range []string{"", "> li", "li >", "li[unclosed", "li%bad"} {
		if got := doc.Select(sel); got != nil {
			t.Errorf("Select(%q) should return nil, got %d nodes", sel, len(got))
		}
	}
}

func TestMalformedHTMLTolerance(t *testing.T) {
	// Unclosed tags, stray end tags, attribute soup.
	doc := Parse(`<div><p>one<p>two</div></span><a href=unquoted disabled>link</a><br><img src="x.png">`)
	if as := doc.ByTag("a"); len(as) != 1 {
		t.Fatalf("anchors = %d", len(as))
	}
	a := doc.ByTag("a")[0]
	if href, _ := a.Attr("href"); href != "unquoted" {
		t.Errorf("unquoted attr = %q", href)
	}
	if _, ok := a.Attr("disabled"); !ok {
		t.Error("bare attribute lost")
	}
	if imgs := doc.ByTag("img"); len(imgs) != 1 {
		t.Error("void element mishandled")
	}
	// Deeply broken input must not panic and must keep text.
	doc2 := Parse("<<<>>> &unknown; <b>bold")
	if !strings.Contains(doc2.Text(), "&unknown;") {
		t.Errorf("unknown entity mangled: %q", doc2.Text())
	}
}

func TestVoidAndSelfClosing(t *testing.T) {
	doc := Parse(`<div><br/><hr><input type="text" value="v"/><span>after</span></div>`)
	div := doc.SelectFirst("div")
	if div == nil {
		t.Fatal("no div")
	}
	// span must be a child of div, not of input.
	span := doc.SelectFirst("div > span")
	if span == nil {
		t.Fatal("void elements swallowed following siblings")
	}
	input := doc.SelectFirst("input")
	if v, _ := input.Attr("value"); v != "v" {
		t.Errorf("input value = %q", v)
	}
}

func TestCommentsPreserved(t *testing.T) {
	doc := Parse("<div><!-- hidden note --></div>")
	var comment string
	doc.Walk(func(n *Node) bool {
		if n.Type == NodeComment {
			comment = n.Data
		}
		return true
	})
	if !strings.Contains(comment, "hidden note") {
		t.Errorf("comment = %q", comment)
	}
}

func TestNumericEntities(t *testing.T) {
	cases := map[string]string{
		"&#65;":      "A",
		"&#x41;":     "A",
		"&#x1F600;":  "\U0001F600",
		"&#0;":       "&#0;", // invalid: left verbatim
		"&#xZZ;":     "&#xZZ;",
		"&notreal;":  "&notreal;",
		"&amp;&lt;":  "&<",
		"100 &amp 5": "100 &amp 5", // missing semicolon
	}
	for in, want := range cases {
		if got := UnescapeEntities(in); got != want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return UnescapeEntities(EscapeText(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(s string) bool {
		return UnescapeEntities(EscapeAttr(s)) == s
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestEscapersAllocateLittle(t *testing.T) {
	cases := []struct {
		name string
		fn   func(string) string
		in   string
		max  float64
	}{
		{"EscapeText clean", EscapeText, "nothing to escape in this listing text", 0},
		{"EscapeAttr clean", EscapeAttr, "https://bots.example/bot/42", 0},
		{"EscapeText dirty", EscapeText, `a & b < c > d "quoted"`, 2},
		{"EscapeAttr dirty", EscapeAttr, `a & b < c > d "quoted"`, 2},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, func() { c.fn(c.in) }); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		doc.Text()
		doc.Select("a[href]")
		return doc != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTextNormalization(t *testing.T) {
	doc := Parse("<div>  lots \n\t of    <b>whitespace</b>  here </div>")
	if got := doc.Text(); got != "lots of whitespace here" {
		t.Errorf("Text() = %q", got)
	}
}

func TestAttrHelpers(t *testing.T) {
	doc := Parse(`<a HREF="/x" Class="big red">t</a>`)
	a := doc.ByTag("a")[0]
	if href, ok := a.Attr("href"); !ok || href != "/x" {
		t.Errorf("case-insensitive attr = %q, %v", href, ok)
	}
	if a.AttrOr("missing", "dflt") != "dflt" {
		t.Error("AttrOr default failed")
	}
	if !a.HasClass("red") || a.HasClass("blue") {
		t.Error("HasClass on multi-class failed")
	}
}
