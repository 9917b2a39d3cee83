// Package htmlparse is a small, dependency-free HTML parser: a
// tokenizer, a tolerant tree builder, and element locators in the style
// of Selenium's locator strategies (by id, tag, class, attribute, text,
// and a CSS-lite selector language). The paper's scraper drove a
// browser; our scraper drives this parser over the HTML the simulated
// listing service returns, exercising the same extraction logic.
package htmlparse

import (
	"strings"
	"unicode"
)

// TokenType classifies lexer output.
type TokenType int

// Token types.
const (
	TokenText TokenType = iota
	TokenStartTag
	TokenEndTag
	TokenSelfClosing
	TokenComment
	TokenDoctype
)

// Attr is one attribute on a start tag.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical unit of HTML.
type Token struct {
	Type  TokenType
	Data  string // tag name (lower-cased) or text/comment content
	Attrs []Attr
}

// voidElements never take end tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements swallow everything until their literal end tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// Tokenizer lexes HTML.
type Tokenizer struct {
	src string
	pos int
	// pending end-tag for raw text elements
	rawEnd string
}

// NewTokenizer creates a tokenizer over src.
func NewTokenizer(src string) *Tokenizer { return &Tokenizer{src: src} }

// Next returns the next token, or false when input is exhausted.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawEnd != "" {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		return z.tag()
	}
	return z.text(), true
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TokenText, Data: UnescapeEntities(z.src[start:z.pos])}
}

// rawText consumes until the stored end tag (case-insensitive).
func (z *Tokenizer) rawText() Token {
	end := "</" + z.rawEnd
	lower := strings.ToLower(z.src[z.pos:])
	idx := strings.Index(lower, end)
	if idx < 0 {
		t := Token{Type: TokenText, Data: z.src[z.pos:]}
		z.pos = len(z.src)
		z.rawEnd = ""
		return t
	}
	t := Token{Type: TokenText, Data: z.src[z.pos : z.pos+idx]}
	z.pos += idx
	z.rawEnd = ""
	return t
}

func (z *Tokenizer) tag() (Token, bool) {
	// comment?
	if strings.HasPrefix(z.src[z.pos:], "<!--") {
		end := strings.Index(z.src[z.pos+4:], "-->")
		if end < 0 {
			t := Token{Type: TokenComment, Data: z.src[z.pos+4:]}
			z.pos = len(z.src)
			return t, true
		}
		t := Token{Type: TokenComment, Data: z.src[z.pos+4 : z.pos+4+end]}
		z.pos += 4 + end + 3
		return t, true
	}
	// doctype or other declaration?
	if strings.HasPrefix(z.src[z.pos:], "<!") {
		end := strings.IndexByte(z.src[z.pos:], '>')
		if end < 0 {
			z.pos = len(z.src)
			return Token{Type: TokenDoctype, Data: ""}, true
		}
		t := Token{Type: TokenDoctype, Data: strings.TrimSpace(z.src[z.pos+2 : z.pos+end])}
		z.pos += end + 1
		return t, true
	}
	// end tag?
	if strings.HasPrefix(z.src[z.pos:], "</") {
		end := strings.IndexByte(z.src[z.pos:], '>')
		if end < 0 {
			z.pos = len(z.src)
			return Token{}, false
		}
		name := strings.ToLower(strings.TrimSpace(z.src[z.pos+2 : z.pos+end]))
		z.pos += end + 1
		return Token{Type: TokenEndTag, Data: name}, true
	}
	// start tag
	end := strings.IndexByte(z.src[z.pos:], '>')
	if end < 0 {
		// Trailing garbage; emit as text.
		t := Token{Type: TokenText, Data: z.src[z.pos:]}
		z.pos = len(z.src)
		return t, true
	}
	inner := z.src[z.pos+1 : z.pos+end]
	z.pos += end + 1
	selfClose := strings.HasSuffix(inner, "/")
	if selfClose {
		inner = inner[:len(inner)-1]
	}
	name, attrs := parseTagBody(inner)
	if name == "" {
		return Token{Type: TokenText, Data: "<" + inner + ">"}, true
	}
	typ := TokenStartTag
	if selfClose || voidElements[name] {
		typ = TokenSelfClosing
	}
	if typ == TokenStartTag && rawTextElements[name] {
		z.rawEnd = name
	}
	return Token{Type: typ, Data: name, Attrs: attrs}, true
}

// parseTagBody splits "a href='x' class=b" into the tag name and attrs.
func parseTagBody(s string) (string, []Attr) {
	i := 0
	// tag name
	for i < len(s) && !unicode.IsSpace(rune(s[i])) {
		i++
	}
	name := strings.ToLower(s[:i])
	var attrs []Attr
	for i < len(s) {
		// skip whitespace
		for i < len(s) && unicode.IsSpace(rune(s[i])) {
			i++
		}
		if i >= len(s) {
			break
		}
		// key
		ks := i
		for i < len(s) && s[i] != '=' && !unicode.IsSpace(rune(s[i])) {
			i++
		}
		key := strings.ToLower(s[ks:i])
		if key == "" {
			i++
			continue
		}
		// skip whitespace before '='
		for i < len(s) && unicode.IsSpace(rune(s[i])) {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			attrs = append(attrs, Attr{Key: key, Val: ""})
			continue
		}
		i++ // consume '='
		for i < len(s) && unicode.IsSpace(rune(s[i])) {
			i++
		}
		var val string
		if i < len(s) && (s[i] == '"' || s[i] == '\'') {
			q := s[i]
			i++
			vs := i
			for i < len(s) && s[i] != q {
				i++
			}
			val = s[vs:i]
			if i < len(s) {
				i++ // closing quote
			}
		} else {
			vs := i
			for i < len(s) && !unicode.IsSpace(rune(s[i])) {
				i++
			}
			val = s[vs:i]
		}
		attrs = append(attrs, Attr{Key: key, Val: UnescapeEntities(val)})
	}
	return name, attrs
}

// entity table for the common named entities listings emit.
var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "copy": "©", "mdash": "—", "ndash": "–",
	"hellip": "…", "rsquo": "’", "lsquo": "‘",
}

// UnescapeEntities resolves named and numeric character references.
// Unknown references are left verbatim, as browsers do.
func UnescapeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if rep, ok := entities[ref]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		if strings.HasPrefix(ref, "#") {
			if r := parseNumericRef(ref[1:]); r > 0 {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func parseNumericRef(s string) rune {
	base := 10
	if len(s) > 1 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	var n int64
	for _, c := range s {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return -1
		}
		n = n*int64(base) + d
		if n > 0x10FFFF {
			return -1
		}
	}
	if n == 0 {
		return -1
	}
	return rune(n)
}

// The escapers are built once and shared: a strings.Replacer is safe
// for concurrent use, and building one costs far more than a Replace.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes text for safe inclusion in HTML element content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes text for safe inclusion in a double-quoted
// attribute value.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
