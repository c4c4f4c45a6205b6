package sqlexec

import (
	"strings"
	"unicode/utf8"
)

// likePattern is a SQL LIKE pattern: '%' matches any run of characters and
// '_' any one character, neither of them '\n'; every other character
// matches itself. Subject and pattern are read as UTF-8 with each invalid
// byte standing for U+FFFD (so an invalid pattern byte matches an invalid
// subject byte). Those are the semantics of the anchored regular
// expression LIKE used to be translated into, without the regexp: a
// prefix match, a leftmost search per inner segment and a suffix match.
type likePattern string

// Match reports whether the pattern matches all of s.
func (p likePattern) Match(s string) bool {
	first, rest, wild := strings.Cut(string(p), "%")
	i, ok := likeAt(s, 0, first)
	if !ok {
		return false
	}
	if !wild {
		return i == len(s)
	}
	for {
		seg, more, inner := strings.Cut(rest, "%")
		// Every segment spans a fixed number of characters, so the leftmost
		// occurrence ends earliest and leaves the widest '\n'-free span for
		// the segments after it; the last segment must end at len(s).
		for q := i; ; {
			if end, ok := likeAt(s, q, seg); ok && (inner || end == len(s)) {
				i = end
				break
			}
			if q >= len(s) || s[q] == '\n' {
				return false
			}
			_, w := utf8.DecodeRuneInString(s[q:])
			q += w
		}
		if !inner {
			return true
		}
		rest = more
	}
}

// likeAt matches one '%'-free segment at s[i:] and returns its end.
func likeAt(s string, i int, seg string) (int, bool) {
	for _, r := range seg {
		if i >= len(s) {
			return 0, false
		}
		c, w := utf8.DecodeRuneInString(s[i:])
		if r == '_' {
			if c == '\n' {
				return 0, false
			}
		} else if c != r {
			return 0, false
		}
		i += w
	}
	return i, true
}
