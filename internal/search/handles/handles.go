// Package handles implements privacy of the searched data owner via
// resource handlers (paper Section V-C): "every data item has a handler as
// a reference to that data. For example 'Alice's birthday' instead of
// '26 October 1990'. When one is interested in knowing the content of that
// handler, he must prove himself to the data owner and then get access to
// the real content."
//
// The searchable index exposes handles only; dereferencing a handle runs an
// owner-side access check (here: a friendship predicate or a ZKP request via
// internal/search/zkpauth composed by the caller).
package handles

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by this package.
var (
	ErrUnknownHandle = errors.New("handles: unknown handle")
	ErrAccessDenied  = errors.New("handles: owner denied access")
)

// AccessPolicy decides whether a requester may dereference a handle.
type AccessPolicy func(requester string) bool

// Item is one published data item: public handle, private content.
type Item struct {
	// Handle is the public reference ("alice:birthday").
	Handle string
	// content is the protected value.
	content string
	// policy gates dereferencing.
	policy AccessPolicy
}

// Index is the searchable handle directory plus owner-side dereferencing.
// It is safe for concurrent use.
type Index struct {
	mu    sync.RWMutex
	items map[string]*Item
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{items: make(map[string]*Item)}
}

// Publish registers an item: the handle becomes searchable, the content
// stays behind the policy.
func (ix *Index) Publish(handle, content string, policy AccessPolicy) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.items[handle] = &Item{Handle: handle, content: content, policy: policy}
}

// Search returns the handles matching a substring query — note: handles
// only, never content. "It is important for other users to be able to
// determine to which extent their data would be available for the system's
// searches"; owners control exposure by choosing handle names.
func (ix *Index) Search(query string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []string
	for h := range ix.items {
		if strings.Contains(h, query) {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// Dereference resolves a handle to its content after the owner-side access
// check.
func (ix *Index) Dereference(requester, handle string) (string, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	item, ok := ix.items[handle]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownHandle, handle)
	}
	granted := item.policy != nil && item.policy(requester)
	if !granted {
		return "", fmt.Errorf("%w: %s for %s", ErrAccessDenied, handle, requester)
	}
	return item.content, nil
}
