package workload

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func drain(t *testing.T, cfg StreamConfig) []Action {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Action, 0, cfg.Ops)
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	if len(out) != cfg.Ops {
		t.Fatalf("stream emitted %d actions, want %d", len(out), cfg.Ops)
	}
	return out
}

// Two streams with the same config must emit byte-identical sequences —
// the experiment harness depends on this for its run-twice invariant.
func TestStreamDeterministic(t *testing.T) {
	cfg := StreamConfig{Users: 5000, Ops: 2000, Seed: 42}
	a, b := drain(t, cfg), drain(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different action sequences")
	}
	c := drain(t, StreamConfig{Users: 5000, Ops: 2000, Seed: 43})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical action sequences")
	}
}

// Every emitted read must reference a key a prior action wrote: the
// write-on-first-read bootstrap turns a cold read into the post it would
// have fetched.
func TestStreamReadsReferenceWrittenKeys(t *testing.T) {
	written := map[string]bool{}
	for _, a := range drain(t, StreamConfig{Users: 10000, Ops: 5000, Seed: 7}) {
		switch a.Kind {
		case ActionPost, ActionComment:
			if a.Value == nil {
				t.Fatalf("write action %d has no payload", a.Seq)
			}
			written[a.Key] = true
		case ActionReadFeed:
			if a.Value != nil {
				t.Fatalf("read action %d carries a payload", a.Seq)
			}
			if !written[a.Key] {
				t.Fatalf("read action %d references unwritten key %q", a.Seq, a.Key)
			}
		}
	}
}

// The stream's tracked state grows with the touched working set, never
// with the configured population, and the tracking bound caps it outright.
func TestStreamTrackingBounded(t *testing.T) {
	s, err := NewStream(StreamConfig{Users: 1_000_000, Ops: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if got := len(s.users); got > 3000 {
		t.Fatalf("tracked users = %d, exceeds ops emitted", got)
	}

	s, err = NewStream(StreamConfig{Users: 1_000_000, Ops: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.maxTracked = 64
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		if got := len(s.users); got > 64 {
			t.Fatalf("tracked users = %d, exceeds the bound of 64", got)
		}
	}
}

// The emitted kinds should roughly follow the mix. ReadFeed bleeds into
// Post via the bootstrap, so reads get a generous lower bound and posts a
// generous upper bound.
func TestStreamMixProportions(t *testing.T) {
	counts := map[ActionKind]int{}
	const ops = 20000
	for _, a := range drain(t, StreamConfig{Users: 500, Ops: ops, Seed: 99}) {
		counts[a.Kind]++
	}
	read := float64(counts[ActionReadFeed]) / ops
	post := float64(counts[ActionPost]) / ops
	if read < 0.5 {
		t.Fatalf("read fraction = %.3f, want >= 0.5 (mix says 0.7 minus bootstrap bleed)", read)
	}
	if post < 0.1 || post > 0.35 {
		t.Fatalf("post fraction = %.3f, want within [0.1, 0.35]", post)
	}
	if counts[ActionSearch] == 0 || counts[ActionComment] == 0 {
		t.Fatal("mix never produced a search or comment")
	}
}

// On-demand naming must agree with the materializing helper.
func TestStreamUserNameMatchesUserNames(t *testing.T) {
	names := UserNames(50)
	for i, want := range names {
		if got := SearchKey(i); got != "search/"+want {
			t.Fatalf("SearchKey(%d) = %q, want search/%s", i, got, want)
		}
	}
}

// The key helpers build in a stack buffer; the Sprintf forms they replaced
// are the specification, at every padding boundary and for the negative
// indices that keep the Sprintf path.
func TestKeyHelpersMatchSprintfForms(t *testing.T) {
	for _, i := range []int{0, 9, 10, 999, 1000, 9999, 10000, 123456, 1<<31 - 1, -1, -12345} {
		user := fmt.Sprintf("user-%04d", i)
		if got, want := SearchKey(i), fmt.Sprintf("search/%s", user); got != want {
			t.Errorf("SearchKey(%d) = %q, want %q", i, got, want)
		}
		for _, n := range []uint32{0, 7, 1<<32 - 1} {
			if got, want := PostKey(i, n), fmt.Sprintf("post/%s/%d", user, n); got != want {
				t.Errorf("PostKey(%d, %d) = %q, want %q", i, n, got, want)
			}
			if got, want := CommentKey(i, n), fmt.Sprintf("comment/%s/%d", user, n); got != want {
				t.Errorf("CommentKey(%d, %d) = %q, want %q", i, n, got, want)
			}
		}
	}
	user, n := 123456, uint32(789) // variables: a constant argument would fold away
	for name, build := range map[string]func() string{
		"SearchKey":  func() string { return SearchKey(user) },
		"PostKey":    func() string { return PostKey(user, n) },
		"CommentKey": func() string { return CommentKey(user, n) },
	} {
		if avg := testing.AllocsPerRun(200, func() { sinkKey = build() }); avg != 1 {
			t.Errorf("%s allocates %v objects, want 1 (the string)", name, avg)
		}
	}
}

var sinkKey string

func TestStreamBadParams(t *testing.T) {
	if _, err := NewStream(StreamConfig{Users: 0, Ops: 10}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Users=0 error = %v, want ErrBadParams", err)
	}
	if _, err := NewStream(StreamConfig{Users: 10, Ops: -1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Ops=-1 error = %v, want ErrBadParams", err)
	}
}
