package abe

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		in   string
		want *Policy
	}{
		{"relative", Attr("relative")},
		{"(relative AND doctor)", And(Attr("relative"), Attr("doctor"))},
		{"(relative OR painter)", Or(Attr("relative"), Attr("painter"))},
		{"(a and b and c)", And(Attr("a"), Attr("b"), Attr("c"))},
		{"(a OR (b AND c))", Or(Attr("a"), And(Attr("b"), Attr("c")))},
		{"2-of(a, b, c)", Threshold(2, Attr("a"), Attr("b"), Attr("c"))},
		{"2-of(a, (b AND c), d)", Threshold(2, Attr("a"), And(Attr("b"), Attr("c")), Attr("d"))},
		{"(x)", Attr("x")},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParsePolicy(tt.in)
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", tt.in, err)
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("ParsePolicy(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, in := range []string{
		"", "()", "(a AND)", "(a AND b OR c)", "(a", "a b",
		"0-of(a)", "3-of(a, b)", "(AND a b)",
	} {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", in)
		}
	}
}

func TestPolicyRoundTripThroughString(t *testing.T) {
	policies := []*Policy{
		Attr("a"),
		And(Attr("a"), Attr("b")),
		Or(And(Attr("a"), Attr("b")), Attr("c")),
		Threshold(2, Attr("a"), Attr("b"), Attr("c")),
	}
	for _, p := range policies {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip %q: got %s", p.String(), got)
		}
	}
}

// referenceString is String as it was written before Encrypt came to write
// the policy text into the ciphertext's buffer: Sprintf and Join.
func referenceString(p *Policy) string {
	if p == nil {
		return ""
	}
	join := func(sep string) string {
		parts := make([]string, len(p.Children))
		for i, c := range p.Children {
			parts[i] = referenceString(c)
		}
		return strings.Join(parts, sep)
	}
	switch p.Kind {
	case GateLeaf:
		return p.Attribute
	case GateAnd:
		return "(" + join(" AND ") + ")"
	case GateOr:
		return "(" + join(" OR ") + ")"
	case GateThreshold:
		return fmt.Sprintf("%d-of(%s)", p.K, join(", "))
	default:
		return "<invalid>"
	}
}

// TestPolicyTextMatchesReference: String, and the length Encrypt sizes its
// buffer by, agree with the reference rendering on well-formed trees and on
// the malformed ones Validate refuses.
func TestPolicyTextMatchesReference(t *testing.T) {
	for _, p := range []*Policy{
		nil,
		Attr("a"),
		And(Attr("a"), Attr("b")),
		Or(And(Attr("a"), Attr("b")), Attr("c")),
		Threshold(2, Attr("a"), Attr("b"), Attr("c")),
		Threshold(12345, Attr("a")),
		Threshold(-7, Attr("a"), Or(Attr("b"), Threshold(1, Attr("c")))),
		{Kind: GateLeaf},
		{Kind: GateAnd},
		{Kind: GateOr},
		{Kind: GateThreshold},
		{Kind: GateKind(99), Children: []*Policy{Attr("a")}},
		And(Attr("a"), &Policy{Kind: GateKind(0)}),
	} {
		want := referenceString(p)
		if got := p.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		if got := p.textLen(); got != len(want) {
			t.Fatalf("%q: textLen = %d, want %d", want, got, len(want))
		}
	}
}

func TestSatisfied(t *testing.T) {
	pol := Or(And(Attr("relative"), Attr("doctor")), Attr("admin"))
	tests := []struct {
		attrs []string
		want  bool
	}{
		{[]string{"relative", "doctor"}, true},
		{[]string{"admin"}, true},
		{[]string{"relative"}, false},
		{[]string{"doctor"}, false},
		{nil, false},
		{[]string{"relative", "doctor", "admin"}, true},
	}
	for _, tt := range tests {
		if got := pol.Satisfied(tt.attrs); got != tt.want {
			t.Errorf("Satisfied(%v) = %v, want %v", tt.attrs, got, tt.want)
		}
	}
}

func TestThresholdSatisfied(t *testing.T) {
	pol := Threshold(2, Attr("a"), Attr("b"), Attr("c"))
	if pol.Satisfied([]string{"a"}) {
		t.Error("1 of 3 satisfied a 2-threshold")
	}
	if !pol.Satisfied([]string{"a", "c"}) {
		t.Error("2 of 3 did not satisfy a 2-threshold")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Policy{
		nil,
		{Kind: GateLeaf},
		{Kind: GateAnd},
		{Kind: GateThreshold, K: 0, Children: []*Policy{Attr("a")}},
		{Kind: GateThreshold, K: 2, Children: []*Policy{Attr("a")}},
		{Kind: GateKind(99), Children: []*Policy{Attr("a")}},
		{Kind: GateLeaf, Attribute: "a", Children: []*Policy{Attr("b")}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid policy", i)
		}
	}
}

func TestAttributes(t *testing.T) {
	pol := Or(And(Attr("b"), Attr("a")), Attr("c"), Attr("a"))
	got := pol.Attributes()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Attributes() = %v, want %v", got, want)
	}
}

func TestLeafCount(t *testing.T) {
	pol := Or(And(Attr("a"), Attr("b")), Threshold(1, Attr("c"), Attr("d"), Attr("e")))
	if got := pol.leafCount(); got != 5 {
		t.Fatalf("leafCount = %d, want 5", got)
	}
}

func TestQuickSatisfiedMonotone(t *testing.T) {
	// Monotonicity: adding attributes never unsatisfies a policy.
	pol := Or(And(Attr("a"), Attr("b")), Threshold(2, Attr("c"), Attr("d"), Attr("e")))
	all := []string{"a", "b", "c", "d", "e", "f"}
	f := func(mask, extra uint8) bool {
		var subset []string
		for i, a := range all {
			if mask&(1<<i) != 0 {
				subset = append(subset, a)
			}
		}
		superset := append(append([]string(nil), subset...), all[int(extra)%len(all)])
		if pol.Satisfied(subset) && !pol.Satisfied(superset) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nestedParens wraps attr in depth groups of one child each.
func nestedParens(depth int, attr string) string {
	return strings.Repeat("(", depth) + attr + strings.Repeat(")", depth)
}

// nestedGates nests depth AND gates, each holding a leaf and the next gate.
func nestedGates(depth int) (string, *Policy) {
	text, pol := "z", Attr("z")
	for i := 0; i < depth; i++ {
		text, pol = "(a AND "+text+")", And(Attr("a"), pol)
	}
	return text, pol
}

// TestPolicyNestingIsBounded: a policy arrives inside ciphertexts from
// replicas, and every walk over one recurses. Up to maxDepth parentheses or
// gates deep it parses and validates; one more is an error, and so is a
// text nested millions deep, which would otherwise overflow the stack.
func TestPolicyNestingIsBounded(t *testing.T) {
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{nestedParens(maxDepth, "a"), true},
		{nestedParens(maxDepth+1, "a"), false},
		{nestedParens(1000, "a"), false},
		{nestedParens(3_000_000, "a"), false},
		{strings.Repeat("1-of(", maxDepth) + "a" + strings.Repeat(")", maxDepth), true},
		{strings.Repeat("1-of(", maxDepth+1) + "a" + strings.Repeat(")", maxDepth+1), false},
	} {
		pol, err := ParsePolicy(tc.text)
		if tc.ok != (err == nil) {
			t.Errorf("%d bytes: ParsePolicy err = %v, want ok %v", len(tc.text), err, tc.ok)
		}
		if !tc.ok && !errors.Is(err, ErrParse) {
			t.Errorf("%d bytes: err = %v, want ErrParse", len(tc.text), err)
		}
		if err == nil {
			if err := pol.Validate(); err != nil {
				t.Errorf("%d bytes: Validate of the parse: %v", len(tc.text), err)
			}
		}
		if _, err := CanonicalPolicy([]byte(tc.text)); tc.ok != (err == nil) {
			t.Errorf("%d bytes: CanonicalPolicy err = %v, want ok %v", len(tc.text), err, tc.ok)
		}
	}
	for _, depth := range []int{maxDepth, maxDepth + 1, 1000} {
		text, pol := nestedGates(depth)
		if err := pol.Validate(); (err == nil) != (depth <= maxDepth) || (err != nil && !errors.Is(err, ErrBadPolicy)) {
			t.Errorf("%d gates: Validate = %v", depth, err)
		}
		if _, err := ParsePolicy(text); (err == nil) != (depth <= maxDepth) {
			t.Errorf("%d gates: ParsePolicy = %v", depth, err)
		}
	}
}

// TestCanonicalPolicy: a text already in String's syntax comes back as
// itself without an allocation; any other text ParsePolicy accepts comes back
// rendered; anything it refuses is an error.
func TestCanonicalPolicy(t *testing.T) {
	canonical := []string{
		"relative",
		"(relative AND doctor)",
		"(a OR b OR c)",
		"2-of(relative, doctor, painter)",
		"((a AND b) OR 2-of(c, d, (e AND f)))",
		"1-of(a)",
		"(AND AND OR)",
		"2-of-x",
	}
	for _, s := range canonical {
		in := []byte(s)
		out, err := CanonicalPolicy(in)
		if err != nil || &out[0] != &in[0] || len(out) != len(in) {
			t.Errorf("%q: CanonicalPolicy = %q, %v; want the input itself", s, out, err)
		}
		if got := testing.AllocsPerRun(20, func() { CanonicalPolicy(in) }); got != 0 {
			t.Errorf("%q: %v allocations", s, got)
		}
	}
	for s, want := range map[string]string{
		"(member)":                   "member",
		" relative":                  "relative",
		"relative ":                  "relative",
		"(a and b)":                  "(a AND b)",
		"(a AND  b)":                 "(a AND b)",
		"(a AND(b OR c))":            "(a AND (b OR c))",
		"2-of(a,b, c)":               "2-of(a, b, c)",
		"2-of(a , b)":                "2-of(a, b)",
		"02-of(a, b)":                "2-of(a, b)",
		"((a AND b))":                "(a AND b)",
		"2-of(a, (b), c)":            "2-of(a, b, c)",
		"(a\tAND b)":                 "(a AND b)",
		"18446744073709551617-of(a)": "1-of(a)",
	} {
		out, err := CanonicalPolicy([]byte(s))
		if err != nil || string(out) != want || cap(out) != len(out) {
			t.Errorf("%q: CanonicalPolicy = %q (cap %d), %v; want %q", s, out, cap(out), err, want)
		}
	}
	for _, s := range []string{"", "(", "(a AND b OR c)", "0-of(a)", "3-of(a, b)", "a b", nestedParens(maxDepth+1, "a")} {
		if out, err := CanonicalPolicy([]byte(s)); err == nil {
			t.Errorf("%q: CanonicalPolicy = %q, want an error", s, out)
		}
	}
}
