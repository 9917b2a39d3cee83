package htmlparse

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser's crash-freedom and two structural
// properties on arbitrary input: the tree is well-parented, and
// re-serializing text through EscapeText round-trips.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"plain text",
		"<div><p>nested</p></div>",
		"<a href='x' b=\"y\" c>link</a>",
		"<<<>>>",
		"<script>if (a<b) {}</script>",
		"<!-- comment --><!DOCTYPE html>",
		"<img src=x><br/><input value=y>",
		"&amp;&#65;&#x41;&bogus;",
		"<div id=\"a\" class=\"b c\"><span class=c>t</span></div>",
		"</closing-only>",
		"<p>unterminated",
		strings.Repeat("<div>", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		if doc == nil {
			t.Fatal("nil document")
		}
		// Well-parented tree.
		doc.Walk(func(n *Node) bool {
			for _, c := range n.Children {
				if c.Parent != n {
					t.Fatalf("child %v has wrong parent", c)
				}
			}
			return true
		})
		// Selectors never panic.
		doc.Select("div > span.c[id]")
		doc.ByText("x")
		// Escape/unescape round-trip for any text.
		if got := UnescapeEntities(EscapeText(src)); got != src {
			t.Fatalf("escape round-trip changed text: %q -> %q", src, got)
		}
	})
}

// FuzzSelector asserts the selector compiler is total: any input either
// compiles or is rejected, never panics, and matching never crashes.
// Select and SelectFirst must also agree with the reference selector.
func FuzzSelector(f *testing.F) {
	for _, s := range append([]string{"a", "#id", ".cls", "a.b#c[d=e]", "ul > li", "a[", "%", "> >", "a >"}, paritySelectors...) {
		f.Add(s)
	}
	doc := Parse(`<div id="a" class="x"><p class="y z"><a href="u">t</a></p></div>` +
		`<div class="x"><div class="y"><p><a href="v">u</a></p></div><p class="y"><a>w</a></p></div>`)
	f.Fuzz(func(t *testing.T, sel string) {
		checkSelectParity(t, doc, sel, "fuzz doc")
	})
}
