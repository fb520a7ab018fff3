package handles

import (
	"errors"
	"testing"
)

func friendsOfAlice(friends ...string) AccessPolicy {
	set := map[string]bool{}
	for _, f := range friends {
		set[f] = true
	}
	return func(requester string) bool { return set[requester] }
}

func TestSearchReturnsHandlesOnly(t *testing.T) {
	ix := NewIndex()
	ix.Publish("alice:birthday", "26 October 1990", friendsOfAlice("bob"))
	ix.Publish("alice:phone", "+90-555", friendsOfAlice())
	ix.Publish("carol:birthday", "1 Jan 1991", friendsOfAlice())

	got := ix.Search("alice")
	if len(got) != 2 || got[0] != "alice:birthday" || got[1] != "alice:phone" {
		t.Fatalf("Search = %v", got)
	}
	// The paper's point: search surfaces references, never content.
	for _, h := range got {
		if h == "26 October 1990" || h == "+90-555" {
			t.Fatal("search leaked content")
		}
	}
	if all := ix.Search("birthday"); len(all) != 2 {
		t.Fatalf("Search(birthday) = %v", all)
	}
}

func TestDereferenceRequiresOwnerApproval(t *testing.T) {
	ix := NewIndex()
	ix.Publish("alice:birthday", "26 October 1990", friendsOfAlice("bob"))
	got, err := ix.Dereference("bob", "alice:birthday")
	if err != nil || got != "26 October 1990" {
		t.Fatalf("friend dereference: %q, %v", got, err)
	}
	if _, err := ix.Dereference("eve", "alice:birthday"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("stranger dereference: %v", err)
	}
}

func TestDereferenceUnknownHandle(t *testing.T) {
	ix := NewIndex()
	if _, err := ix.Dereference("bob", "ghost"); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("got %v, want ErrUnknownHandle", err)
	}
}

func TestNilPolicyDeniesAll(t *testing.T) {
	ix := NewIndex()
	ix.Publish("locked", "value", nil)
	if _, err := ix.Dereference("anyone", "locked"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("got %v, want ErrAccessDenied", err)
	}
}
