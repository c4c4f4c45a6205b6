package tsdb

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode/utf8"
)

// Glob is a compiled '*' glob: the anchored pattern dialect of
// Query.NamePattern and Query.TagPatterns (disk{host=datanode*}, §3.2) and
// of the SQL GLOB operator, which is what lets a GLOB predicate push down
// into the store verbatim. '*' matches any run of characters except '\n';
// every other character matches itself. Matching is a prefix compare, a
// leftmost search per inner segment and a suffix compare — linear in the
// subject, allocation-free, and with no regular expression behind it.
//
// The semantics are those of the anchored regular expression the dialect
// used to be translated into (literal segments joined by ".*"): a '*' span
// never crosses '\n' (Go's '.' does not match it), and the subject is read
// as UTF-8 with each invalid byte standing for U+FFFD, so a literal U+FFFD
// in the pattern matches an invalid byte. A Glob is immutable and safe for
// concurrent use.
type Glob struct {
	pattern string
	// runewise is set when the pattern contains U+FFFD: segments are then
	// compared rune by rune, so the replacement character also matches an
	// invalid subject byte. Without it a byte compare is equivalent and
	// faster.
	runewise bool
}

// CompileGlob compiles a glob. A pattern that is not valid UTF-8 is
// rejected with the *syntax.Error the regular-expression translation of
// the pattern used to return, text included.
func CompileGlob(pattern string) (Glob, error) {
	if !utf8.ValidString(pattern) {
		return Glob{}, invalidGlobError(pattern)
	}
	return Glob{pattern: pattern, runewise: strings.ContainsRune(pattern, utf8.RuneError)}, nil
}

// Match reports whether the glob matches all of s.
func (g Glob) Match(s string) bool {
	first, rest, star := strings.Cut(g.pattern, "*")
	p, ok := g.matchAt(s, 0, first)
	if !ok {
		return false
	}
	if !star {
		return p == len(s)
	}
	for {
		seg, more, inner := strings.Cut(rest, "*")
		if !inner {
			return g.matchSuffix(s, p, seg)
		}
		// The leftmost occurrence ends earliest and leaves the widest
		// '\n'-free span for the segments after it, so it is never worse
		// than a later one.
		if p, ok = g.find(s, p, seg); !ok {
			return false
		}
		rest = more
	}
}

// matchAt matches seg at s[i:] and returns the end of the match.
func (g Glob) matchAt(s string, i int, seg string) (int, bool) {
	if !g.runewise {
		if strings.HasPrefix(s[i:], seg) {
			return i + len(seg), true
		}
		return 0, false
	}
	for _, r := range seg {
		if i >= len(s) {
			return 0, false
		}
		c, w := utf8.DecodeRuneInString(s[i:])
		if c != r {
			return 0, false
		}
		i += w
	}
	return i, true
}

// find returns the end of the leftmost occurrence of seg in s[p:] whose
// gap from p holds no '\n'.
func (g Glob) find(s string, p int, seg string) (int, bool) {
	if !g.runewise {
		w := s[p:]
		if nl := strings.IndexByte(w, '\n'); nl >= 0 && nl+len(seg) < len(w) {
			w = w[:nl+len(seg)]
		}
		i := strings.Index(w, seg)
		if i < 0 {
			return 0, false
		}
		return p + i + len(seg), true
	}
	for q := p; ; {
		if end, ok := g.matchAt(s, q, seg); ok {
			return end, true
		}
		if q >= len(s) || s[q] == '\n' {
			return 0, false
		}
		_, w := utf8.DecodeRuneInString(s[q:])
		q += w
	}
}

// matchSuffix reports whether seg ends s with a '\n'-free gap from p.
func (g Glob) matchSuffix(s string, p int, seg string) bool {
	if !g.runewise {
		start := len(s) - len(seg)
		return start >= p && s[start:] == seg && strings.IndexByte(s[p:start], '\n') < 0
	}
	for q := p; ; {
		if end, ok := g.matchAt(s, q, seg); ok && end == len(s) {
			return true
		}
		if q >= len(s) || s[q] == '\n' {
			return false
		}
		_, w := utf8.DecodeRuneInString(s[q:])
		q += w
	}
}

// invalidGlobError builds the error regexp.Compile reported for the
// pattern's translation: the quoted tail of that translation from the
// first invalid byte on.
func invalidGlobError(pattern string) error {
	k := 0
	for k < len(pattern) {
		r, w := utf8.DecodeRuneInString(pattern[k:])
		if r == utf8.RuneError && w == 1 {
			break
		}
		k += w
	}
	var b strings.Builder
	for i, part := range strings.Split(pattern[k:], "*") {
		if i > 0 {
			b.WriteString(".*")
		}
		b.WriteString(regexp.QuoteMeta(part))
	}
	b.WriteByte('$')
	return &syntax.Error{Code: syntax.ErrInvalidUTF8, Expr: b.String()}
}
