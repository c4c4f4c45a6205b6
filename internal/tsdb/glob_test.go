package tsdb

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// globToRegexp is the former implementation of the glob dialect — the
// pattern translated into an anchored regular expression — kept as the
// oracle Glob must agree with, match results and error text alike.
func globToRegexp(glob string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteByte('^')
	for i, part := range strings.Split(glob, "*") {
		if i > 0 {
			b.WriteString(".*")
		}
		b.WriteString(regexp.QuoteMeta(part))
	}
	b.WriteByte('$')
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, fmt.Errorf("tsdb: bad glob %q: %w", glob, err)
	}
	return re, nil
}

// checkGlobOracle fails t when Glob and the regexp oracle disagree on
// pattern against subject.
func checkGlobOracle(t *testing.T, pattern, subject string) {
	t.Helper()
	re, werr := globToRegexp(pattern)
	g, gerr := compileQueryGlob(pattern)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("glob %q: error divergence: oracle=%v matcher=%v", pattern, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("glob %q: error text divergence:\noracle:  %v\nmatcher: %v", pattern, werr, gerr)
		}
		return
	}
	if want, got := re.MatchString(subject), g.Match(subject); want != got {
		t.Fatalf("glob %q on %q: oracle=%v matcher=%v", pattern, subject, want, got)
	}
}

// globSeeds are the edge cases of the dialect: '\n' in subject and
// pattern, invalid UTF-8 on either side, a literal U+FFFD (which matches
// an invalid subject byte), doubled and lone stars, and the empty pattern.
var globSeeds = [][2]string{
	{"disk*", "disk1"},
	{"disk*", "x-disk"},
	{"*node*", "datanode-1"},
	{"a*b*c", "aXbYc"},
	{"a*b*c", "acb"},
	{"ab*ba", "aba"},
	{"*", "a\nb"},
	{"*", ""},
	{"", ""},
	{"", "x"},
	{"**", "anything"},
	{"a**b", "ab"},
	{"a*b", "a\nb"},
	{"a\nb", "a\nb"},
	{"a*\n*b", "a\nb"},
	{"x*\n*y", "x\n\ny"},
	{"\n*", "\nabc"},
	{"*\n", "ab\n"},
	{"we[i]rd", "we[i]rd"},
	{"a.b", "axb"},
	{"\xff", "\xff"},
	{"a\xffb*c", "a"},
	{"x.*\xfe", "x"},
	{"�", "\xff"},
	{"�", "�"},
	{"a*�*b", "a\xe2\x82b"},
	{"��", "\xe2\x82"},
	{"*�", "zz\xff"},
	{"d*", "d\xffx"},
	{"*é*", "caf\xc3\xa9s"},
}

func TestGlobMatchesRegexpOracle(t *testing.T) {
	for _, c := range globSeeds {
		checkGlobOracle(t, c[0], c[1])
	}
	// Exhaustive over a small alphabet that exercises every branch.
	alpha := []string{"a", "b", "*", "\n", "\xff", "�"}
	var words []string
	var gen func(prefix string, n int)
	gen = func(prefix string, n int) {
		words = append(words, prefix)
		if n == 0 {
			return
		}
		for _, a := range alpha {
			gen(prefix+a, n-1)
		}
	}
	gen("", 3)
	for _, p := range words {
		for _, s := range words {
			if !strings.Contains(s, "*") {
				checkGlobOracle(t, p, s)
			}
		}
	}
}

func TestGlobInvalidUTF8Error(t *testing.T) {
	_, err := compileQueryGlob("a\xffb*c")
	want := "tsdb: bad glob \"a\\xffb*c\": error parsing regexp: invalid UTF-8: `\xffb.*c$`"
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %s", err, want)
	}
	db := New()
	if _, err := db.Run(Query{TagPatterns: map[string]string{"host": "\xff"}}); err == nil {
		t.Fatal("Run must reject an invalid-UTF-8 tag pattern")
	}
}

// FuzzGlob compares Glob with the regexp oracle on arbitrary patterns and
// subjects: the same match result, and the same error text.
func FuzzGlob(f *testing.F) {
	for _, c := range globSeeds {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, pattern, subject string) {
		checkGlobOracle(t, pattern, subject)
	})
}
