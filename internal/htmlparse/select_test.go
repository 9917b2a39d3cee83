package htmlparse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oracleSelect is the reference Select: at every step it lists each
// base's candidate elements, then keeps the matching ones not seen yet.
// The walk-and-match Select must return exactly its nodes, in its order.
func oracleSelect(n *Node, sel string) []*Node {
	chain, err := parseSelector(sel)
	if err != nil {
		return nil
	}
	current := []*Node{n}
	for _, s := range chain {
		var next []*Node
		seen := make(map[*Node]bool)
		for _, base := range current {
			for _, c := range oracleCandidates(base, s.child) {
				if oracleMatches(s, c) && !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		current = next
		if len(current) == 0 {
			return nil
		}
	}
	return current
}

func oracleCandidates(base *Node, childOnly bool) []*Node {
	var out []*Node
	if childOnly {
		for _, c := range base.Children {
			if c.Type == NodeElement {
				out = append(out, c)
			}
		}
		return out
	}
	for _, c := range base.Children {
		c.Walk(func(x *Node) bool {
			if x.Type == NodeElement {
				out = append(out, x)
			}
			return true
		})
	}
	return out
}

// oracleMatches is simpleSelector.matches with the class test done by
// splitting the class list, as HasClass used to.
func oracleMatches(s simpleSelector, n *Node) bool {
	if n.Type != NodeElement {
		return false
	}
	if s.tag != "" && s.tag != n.Tag {
		return false
	}
	if s.id != "" && n.ID() != s.id {
		return false
	}
	for _, want := range s.classes {
		cls, _ := n.Attr("class")
		found := false
		for _, c := range strings.Fields(cls) {
			if c == want {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	for _, a := range s.attrs {
		v, ok := n.Attr(a.Key)
		if !ok || (a.Val != "" && v != a.Val) {
			return false
		}
	}
	return true
}

// checkSelectParity compares Select and SelectFirst with the oracle.
func checkSelectParity(t *testing.T, doc *Node, sel, label string) {
	t.Helper()
	want := oracleSelect(doc, sel)
	got := doc.Select(sel)
	if len(got) != len(want) {
		t.Fatalf("%s: Select(%q) found %d nodes, oracle %d", label, sel, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Select(%q)[%d] = <%s %v>, oracle <%s %v>", label, sel, i, got[i].Tag, got[i].Attrs, want[i].Tag, want[i].Attrs)
		}
	}
	var wantFirst *Node
	if len(want) > 0 {
		wantFirst = want[0]
	}
	if first := doc.SelectFirst(sel); first != wantFirst {
		t.Fatalf("%s: SelectFirst(%q) = %v, oracle %v", label, sel, first, wantFirst)
	}
}

// pipelineSelectors is every selector string the scraper and the code
// analyzer query pages with.
var pipelineSelectors = []string{
	"p.challenge-text", "li.bot-card", "a.invite", "h1.bot-name", "p.description",
	"span.guild-count", "span.vote-count", "span.prefix", "li.tag", "li.developer",
	"li.command", "a.github", "a.website", "#privacy-policy pre",
	"#lang-bar span.lang", "ul.repo-list li.repo", "ul.file-list li.file a",
}

// paritySelectors adds the combinator shapes where the step order and
// the seen-set matter: nested bases, child steps after descendant steps,
// attributes, several classes.
var paritySelectors = append([]string{
	"div", "ul li", "li > ul > li", "ul > li a", "div div", "div > div > span",
	"div p > a", "ul li li", "li ul li.repo", "[href]", "a[href=x]", "[class]",
	".a.b", "div.a > .b", "#x li", "#repo > ul", "section ul.repo-list > li",
	"div > div", "li > a.file", "div span", "ul.repo-list ul.repo-list li", "li.",
}, pipelineSelectors...)

var (
	randTags    = []string{"div", "ul", "li", "a", "p", "span", "pre", "h1", "section"}
	randClasses = []string{
		"a", "b", "a b", "b a", " a\tb ", "a\u00a0b", "a\u0085b", "repo", "repo-list",
		"file", "file-list", "lang", "bot-card", "invite", "tag", "challenge-text",
		"description", "github website", "repo  repo-list", "",
	}
	randIDs = []string{"x", "repo", "privacy-policy", "lang-bar", "profile"}
)

// randomPage renders a random tree of nested, repeated tags so that
// selector steps see several bases, some inside others.
func randomPage(rng *rand.Rand) string {
	var b strings.Builder
	var gen func(depth int)
	gen = func(depth int) {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			if rng.Intn(6) == 0 {
				b.WriteString("text ")
				continue
			}
			tag := randTags[rng.Intn(len(randTags))]
			fmt.Fprintf(&b, "<%s", tag)
			if rng.Intn(3) > 0 {
				fmt.Fprintf(&b, ` class="%s"`, randClasses[rng.Intn(len(randClasses))])
			}
			if rng.Intn(5) == 0 {
				fmt.Fprintf(&b, ` id="%s"`, randIDs[rng.Intn(len(randIDs))])
			}
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&b, ` href="%s"`, []string{"x", "y"}[rng.Intn(2)])
			}
			b.WriteString(">")
			if depth < 5 && rng.Intn(3) > 0 {
				gen(depth + 1)
			}
			fmt.Fprintf(&b, "</%s>", tag)
		}
	}
	gen(0)
	return b.String()
}

func TestSelectMatchesOracleOnRandomTrees(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := Parse(randomPage(rng))
		for _, sel := range paritySelectors {
			checkSelectParity(t, doc, sel, fmt.Sprintf("seed %d", seed))
		}
	}
}

func TestSelectMatchesOracleOnSample(t *testing.T) {
	doc := Parse(sample)
	for _, sel := range append([]string{"li.bot-card", "ul.bot-list > li", "li a.invite", "#header a.next", "a[href]", "a[class=gh]"}, paritySelectors...) {
		checkSelectParity(t, doc, sel, "sample")
	}
}
