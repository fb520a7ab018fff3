package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestFormatParseRoundTrip(t *testing.T) {
	s := validScenario()
	s.Expect = &Expect{Digest: 0xdeadbeefcafe, Writes: 10, Reads: 20, NotFound: 3, Failed: 1, Detected: 7, Repaired: 12}
	s.GraphWeighted = true
	first := s.Format()
	parsed, err := Parse(first)
	if err != nil {
		t.Fatalf("Parse(Format(s)): %v", err)
	}
	s.Normalize()
	if !reflect.DeepEqual(parsed, s) {
		t.Fatalf("round trip drifted:\nwant %+v\ngot  %+v", s, parsed)
	}
	second := parsed.Format()
	if !bytes.Equal(first, second) {
		t.Fatalf("Format not canonical:\n%s\nvs\n%s", first, second)
	}
}

func TestFormatOmitsDefaults(t *testing.T) {
	s := &Scenario{Name: "min", Seed: 1, Ticks: 10, Nodes: 4, Replication: 2, Users: 10, OpsPerTick: 2}
	out := string(s.Format())
	for _, forbidden := range []string{"readers", "heal-every", "node-gate", "weighting", "expect"} {
		if strings.Contains(out, forbidden) {
			t.Fatalf("minimal scenario emits default directive %q:\n%s", forbidden, out)
		}
	}
}

func TestParseStrictErrors(t *testing.T) {
	valid := string(validScenario().Format())
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "missing"},
		{"missing header", "scenario x\n", "first line"},
		{"unknown directive", valid + "whatever 3\n", "unknown directive"},
		{"duplicate directive", valid + "seed 9\n", "duplicate directive"},
		{"missing required", "# godosn scenario v1\nscenario x\nseed 1\n", "missing directive"},
		{"unknown kind", valid + "event 1 meteor dur=1\n", "unknown event kind"},
		{"unknown event param", strings.Replace(valid, "count=2", "count=2 dur=3", 1), "does not take parameter"},
		{"missing event param", strings.Replace(valid, " dur=5", "", 1), "missing parameter"},
		{"duplicate event param", strings.Replace(valid, "count=2", "count=2 count=2", 1), "duplicate event parameter"},
		{"bad float", strings.Replace(valid, "frac=0.3", "frac=x", 1), "bad float"},
		{"unknown invariant", valid + "invariant no-such-check\n", "unknown invariant"},
		{"invariant missing value", strings.Replace(valid, "invariant p99-max-ms 500", "invariant p99-max-ms", 1), "wants a value"},
		{"flag invariant with value", strings.Replace(valid, "invariant no-revoked-opens", "invariant no-revoked-opens 1", 1), "takes no value"},
		{"bad expect", valid + "expect digest=zz writes=1 reads=1 not-found=0 failed=0 detected=0 repaired=0\n", "bad expect digest"},
		{"expect missing field", valid + "expect digest=00 writes=1 reads=1 failed=0 detected=0 repaired=0\n", "expect missing field"},
		{"expect missing detected", valid + "expect digest=00 writes=1 reads=1 not-found=0 failed=0 repaired=0\n", `expect missing field "detected"`},
		{"expect missing repaired", valid + "expect digest=00 writes=1 reads=1 not-found=0 failed=0 detected=0\n", `expect missing field "repaired"`},
		{"bad expect detected", valid + "expect digest=00 writes=1 reads=1 not-found=0 failed=0 detected=x repaired=0\n", "bad expect detected"},
		{"bad expect repaired", valid + "expect digest=00 writes=1 reads=1 not-found=0 failed=0 detected=0 repaired=-\n", "bad expect repaired"},
		{"negative expect detected", valid + "expect digest=00 writes=1 reads=1 not-found=0 failed=0 detected=-1 repaired=0\n", ">= 0"},
		{"duplicate expect repaired", valid + "expect digest=00 writes=1 reads=1 not-found=0 failed=0 detected=0 repaired=1 repaired=1\n", "duplicate expect field"},
		{"weighting value", strings.Replace(valid, "ops-per-tick 4", "ops-per-tick 4\nweighting zipf", 1), "weighting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.input))
			if err == nil {
				t.Fatalf("accepted malformed input")
			}
			if !errors.Is(err, ErrScenario) {
				t.Fatalf("error %v is not tagged ErrScenario", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// hostileBase is a minimal valid scenario the hostile lines are appended to.
const hostileBase = "# godosn scenario v1\nscenario hostile\nseed 1\nticks 20\nnodes 8\nreplication 2\nusers 10\nops-per-tick 2\nreaders 4\n"

// hostileLines each parse as numbers but must not validate: a NaN passes
// every range comparison (and a NaN invariant can never fail), and a window
// or revoke total that overflows int wraps past its bound.
var hostileLines = []string{
	"invariant lookup-success-min NaN",
	"invariant p99-max-ms NaN",
	"invariant p99-max-ms +Inf",
	"event 2 byzantine frac=NaN mode=bit-flip rate=NaN dur=3",
	"event 2 loss rate=NaN dur=3",
	"event 2 churn frac=0.5 dur=9223372036854775807",
	"event 2 revoke count=4611686018427387904\nevent 3 revoke count=4611686018427387904",
}

func TestParseRejectsNonFiniteAndOverflowingValues(t *testing.T) {
	if _, err := Parse([]byte(hostileBase)); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
	for _, line := range hostileLines {
		if s, err := Parse([]byte(hostileBase + line + "\n")); !errors.Is(err, ErrScenario) {
			t.Errorf("%q: got %v, %v; want ErrScenario", line, s, err)
		}
	}
}

func TestParseTolerantOfCommentsAndBlanks(t *testing.T) {
	s := validScenario()
	lines := strings.Split(strings.TrimRight(string(s.Format()), "\n"), "\n")
	spaced := lines[0] + "\n\n# a comment\n" + strings.Join(lines[1:], "\n\n") + "\n"
	parsed, err := Parse([]byte(spaced))
	if err != nil {
		t.Fatalf("comments/blanks rejected: %v", err)
	}
	if !bytes.Equal(parsed.Format(), s.Format()) {
		t.Fatalf("comment-tolerant parse drifted")
	}
}

// FuzzParse: Parse never panics, every error it returns is ErrScenario, an
// accepted input passes Validate, and Format of the result re-parses to the
// same bytes. Seeds: the committed library (testdata/fuzz/FuzzParse) and the
// hostile lines above.
func FuzzParse(f *testing.F) {
	for _, line := range hostileLines {
		f.Add([]byte(hostileBase + line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrScenario) {
				t.Fatalf("error %v is not tagged ErrScenario", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a scenario Validate rejects: %v", err)
		}
		canon := s.Format()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		if out := again.Format(); !bytes.Equal(out, canon) {
			t.Fatalf("Format is not a fixed point:\n%s\nvs\n%s", canon, out)
		}
	})
}
