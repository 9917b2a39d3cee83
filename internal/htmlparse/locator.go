package htmlparse

import (
	"errors"
	"strings"
)

// ErrNoSuchElement is returned by Require* helpers when a locator finds
// nothing — named after the Selenium NoSuchElementException the paper's
// scraper had to react to (§3).
var ErrNoSuchElement = errors.New("htmlparse: no such element")

// ByID finds the first element with the given id.
func (n *Node) ByID(id string) *Node {
	var found *Node
	n.Walk(func(x *Node) bool {
		if x.Type == NodeElement && x.ID() == id {
			found = x
			return false
		}
		return true
	})
	return found
}

// ByTag finds every element with the given tag name.
func (n *Node) ByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Type == NodeElement && x.Tag == tag {
			out = append(out, x)
		}
		return true
	})
	return out
}

// ByClass finds every element carrying the given class.
func (n *Node) ByClass(class string) []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Type == NodeElement && x.HasClass(class) {
			out = append(out, x)
		}
		return true
	})
	return out
}

// ByAttr finds every element whose attribute key equals val. An empty
// val matches mere presence of the attribute.
func (n *Node) ByAttr(key, val string) []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Type != NodeElement {
			return true
		}
		if v, ok := x.Attr(key); ok && (val == "" || v == val) {
			out = append(out, x)
		}
		return true
	})
	return out
}

// ByText finds every element whose normalized text content contains
// needle (case-insensitive) — Selenium's partial link text strategy.
func (n *Node) ByText(needle string) []*Node {
	needle = strings.ToLower(needle)
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Type == NodeElement && strings.Contains(strings.ToLower(x.Text()), needle) {
			out = append(out, x)
		}
		return true
	})
	return out
}

// simpleSelector is one compound selector: tag#id.class[attr=val].
type simpleSelector struct {
	tag     string
	id      string
	classes []string
	attrs   []Attr
	child   bool // true when joined to the previous selector with '>'
}

func (s *simpleSelector) matches(n *Node) bool {
	if n.Type != NodeElement {
		return false
	}
	if s.tag != "" && s.tag != n.Tag {
		return false
	}
	if s.id != "" && n.ID() != s.id {
		return false
	}
	for _, c := range s.classes {
		if !n.HasClass(c) {
			return false
		}
	}
	for _, a := range s.attrs {
		v, ok := n.Attr(a.Key)
		if !ok {
			return false
		}
		if a.Val != "" && v != a.Val {
			return false
		}
	}
	return true
}

// parseSelector compiles a CSS-lite selector: compound selectors joined
// by descendant (space) or child (>) combinators. Supported atoms:
// tag, #id, .class, [attr], [attr=val].
func parseSelector(sel string) ([]simpleSelector, error) {
	fields := strings.Fields(sel)
	if len(fields) == 0 {
		return nil, errors.New("htmlparse: empty selector")
	}
	var out []simpleSelector
	childNext := false
	for _, f := range fields {
		if f == ">" {
			if len(out) == 0 {
				return nil, errors.New("htmlparse: selector cannot start with '>'")
			}
			childNext = true
			continue
		}
		s, err := parseCompound(f)
		if err != nil {
			return nil, err
		}
		s.child = childNext
		childNext = false
		out = append(out, s)
	}
	if childNext {
		return nil, errors.New("htmlparse: dangling '>' in selector")
	}
	return out, nil
}

func parseCompound(f string) (simpleSelector, error) {
	var s simpleSelector
	i := 0
	readIdent := func() string {
		start := i
		for i < len(f) && f[i] != '#' && f[i] != '.' && f[i] != '[' {
			i++
		}
		return f[start:i]
	}
	if i < len(f) && f[i] != '#' && f[i] != '.' && f[i] != '[' {
		s.tag = strings.ToLower(readIdent())
	}
	for i < len(f) {
		switch f[i] {
		case '#':
			i++
			s.id = readIdent()
		case '.':
			i++
			s.classes = append(s.classes, readIdent())
		case '[':
			end := strings.IndexByte(f[i:], ']')
			if end < 0 {
				return s, errors.New("htmlparse: unterminated attribute selector")
			}
			body := f[i+1 : i+end]
			i += end + 1
			if eq := strings.IndexByte(body, '='); eq >= 0 {
				val := strings.Trim(body[eq+1:], `"'`)
				s.attrs = append(s.attrs, Attr{Key: strings.ToLower(body[:eq]), Val: val})
			} else {
				s.attrs = append(s.attrs, Attr{Key: strings.ToLower(body)})
			}
		default:
			return s, errors.New("htmlparse: bad selector fragment " + f)
		}
	}
	return s, nil
}

// Select returns every element matching the CSS-lite selector, in
// document order. Invalid selectors return nil.
func (n *Node) Select(sel string) []*Node {
	chain, err := parseSelector(sel)
	if err != nil {
		return nil
	}
	return selectChain(n, chain)
}

// selectChain applies the compound selectors in turn, each step
// starting from the elements the previous one matched.
func selectChain(n *Node, chain []simpleSelector) []*Node {
	current := []*Node{n}
	for i := range chain {
		current = chain[i].step(current)
		if len(current) == 0 {
			return nil
		}
	}
	return current
}

// step returns, for each base in order, the elements below it that s
// matches, each element once. One base's walk never meets an element
// twice, so the seen-set is kept only when there are several bases.
func (s *simpleSelector) step(bases []*Node) []*Node {
	var seen map[*Node]bool
	if len(bases) > 1 {
		seen = make(map[*Node]bool)
	}
	var out []*Node
	for _, base := range bases {
		out = s.collect(base, out, seen)
	}
	return out
}

// collect appends the elements below base that s matches — its
// children for a child step, else its descendants in document order —
// leaving out those already in a non-nil seen and recording the rest.
func (s *simpleSelector) collect(base *Node, out []*Node, seen map[*Node]bool) []*Node {
	for _, c := range base.Children {
		if s.matches(c) && !seen[c] {
			if seen != nil {
				seen[c] = true
			}
			out = append(out, c)
		}
		if !s.child {
			out = s.collect(c, out, seen)
		}
	}
	return out
}

// first returns the first element collect would append from base.
func (s *simpleSelector) first(base *Node) *Node {
	for _, c := range base.Children {
		if s.matches(c) {
			return c
		}
		if !s.child {
			if m := s.first(c); m != nil {
				return m
			}
		}
	}
	return nil
}

// SelectFirst returns the first selector match or nil. It equals
// Select(sel)[0] without building the last step's list: that step
// appends each base's matches in base order and nothing is seen before
// its first append, so the first match of the first base that has one
// is the answer.
func (n *Node) SelectFirst(sel string) *Node {
	chain, err := parseSelector(sel)
	if err != nil {
		return nil
	}
	last := &chain[len(chain)-1]
	for _, base := range selectChain(n, chain[:len(chain)-1]) {
		if m := last.first(base); m != nil {
			return m
		}
	}
	return nil
}

// RequireFirst returns the first match or ErrNoSuchElement, mirroring
// how the paper's scraper treats a missing element as an exception to
// react to rather than a crash.
func (n *Node) RequireFirst(sel string) (*Node, error) {
	if m := n.SelectFirst(sel); m != nil {
		return m, nil
	}
	return nil, ErrNoSuchElement
}
