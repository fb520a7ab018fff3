package abe

import (
	"bytes"
	"testing"
)

// FuzzParsePolicy ensures the policy parser never panics, that anything it
// accepts round-trips through String() to an equivalent policy, and that
// CanonicalPolicy agrees with both: it refuses what ParsePolicy refuses,
// returns the rendering otherwise, and returns its input itself exactly when
// the input is that rendering.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{
		"relative",
		"(relative AND doctor)",
		"(relative OR painter)",
		"2-of(a, b, c)",
		"((a AND b) OR 2-of(c, d, (e AND f)))",
		"(a AND b OR c)",
		"0-of(a)",
		"(",
		"",
		"9999999999-of(a)",
		"(member)",
		"(a AND(b or c))",
		nestedParens(1000, "a"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParsePolicy(input)
		in := []byte(input)
		canon, cerr := CanonicalPolicy(in)
		if err != nil {
			if cerr == nil {
				t.Fatalf("CanonicalPolicy accepted %q, which ParsePolicy refuses: %v", input, err)
			}
			return
		}
		if cerr != nil || string(canon) != p.String() {
			t.Fatalf("CanonicalPolicy(%q) = %q, %v; want %q", input, canon, cerr, p.String())
		}
		if same := len(in) > 0 && &canon[0] == &in[0]; same != (p.String() == input) || !bytes.Equal(in, []byte(input)) {
			t.Fatalf("CanonicalPolicy(%q) returned its input: %v; the input is canonical: %v", input, same, p.String() == input)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePolicy accepted invalid policy %q: %v", input, err)
		}
		// Round-trip: the rendered form must re-parse to the same tree.
		again, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", p.String(), input, err)
		}
		if again.String() != p.String() {
			t.Fatalf("round trip drift: %q -> %q", p.String(), again.String())
		}
		if p.String() != referenceString(p) || p.textLen() != len(p.String()) {
			t.Fatalf("%q renders %q (%d bytes sized); the reference renders %q", input, p.String(), p.textLen(), referenceString(p))
		}
	})
}
