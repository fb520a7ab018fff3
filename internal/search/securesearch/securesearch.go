// Package securesearch composes the four Table-I secure-social-search
// mechanisms into one end-to-end flow — the library counterpart of the
// paper's Section V, where each concern is solved by a different mechanism:
//
//  1. the searchable index exposes resource *handles*, never content
//     (owner privacy, V-C — internal/search/handles);
//  2. candidate owners are ranked by chained trust and popularity
//     (trusted results, V-D — internal/search/trustrank);
//  3. the request travels to the chosen owner through trusted friends
//     (searcher privacy, V-B — internal/search/friendnet);
//  4. dereferencing requires a pseudonymous zero-knowledge access proof
//     (searcher privacy + owner control, V-B/V-C — internal/search/zkpauth).
//
// The Outcome records what every involved party observed, so callers
// (examples/securesearch, experiment E8's composed row) can audit the
// leakage surface of a complete search.
package securesearch

import (
	"errors"
	"fmt"
	"strings"

	"godosn/internal/search/friendnet"
	"godosn/internal/search/handles"
	"godosn/internal/search/trustrank"
	"godosn/internal/search/zkpauth"
	"godosn/internal/social/graph"
)

// Errors returned by this package.
var (
	ErrNoResults = errors.New("securesearch: no results")
	ErrNoAccess  = errors.New("securesearch: access denied by owner")
)

// Engine wires the four mechanisms over one social graph.
type Engine struct {
	index   *handles.Index
	ranker  *trustrank.Ranker
	routing *friendnet.Network
	// owners maps a user to their ZKP-guarded resource owner endpoint.
	owners map[string]*zkpauth.Owner
}

// New creates an engine over the social graph, ranking with
// trustrank.DefaultConfig.
func New(g *graph.Graph) *Engine {
	return &Engine{
		index:   handles.NewIndex(),
		ranker:  trustrank.New(g, trustrank.DefaultConfig()),
		routing: friendnet.New(g),
		owners:  make(map[string]*zkpauth.Owner),
	}
}

// Ranker exposes the trust ranker (for popularity signals).
func (e *Engine) Ranker() *trustrank.Ranker { return e.ranker }

// Publish registers owner content: the handle becomes searchable; the
// content sits behind the owner's ZKP whitelist.
func (e *Engine) Publish(owner, handleName, content string) {
	o, ok := e.owners[owner]
	if !ok {
		o = zkpauth.NewOwner()
		e.owners[owner] = o
	}
	full := owner + ":" + handleName
	o.Publish(full, content)
	// The index-level policy defers to the ZKP check at dereference time;
	// handles are searchable by construction.
	e.index.Publish(full, content, func(string) bool { return false })
	e.routing.Publish(owner, handleName, full)
}

// Authorize whitelists a credential with an owner.
func (e *Engine) Authorize(owner string, cred *zkpauth.Credential) error {
	o, ok := e.owners[owner]
	if !ok {
		return fmt.Errorf("securesearch: unknown owner %q", owner)
	}
	o.Authorize(cred.Statement())
	return nil
}

// Result is one ranked search hit.
type Result struct {
	// Owner is the candidate user.
	Owner string
	// Handle is the matched resource handle.
	Handle string
	// Score and Chain come from trust ranking.
	Score float64
	Chain []string
}

// Outcome is a completed search-and-fetch with its leakage audit.
type Outcome struct {
	// Results is the ranked hit list.
	Results []Result
	// Content is the dereferenced best hit's content ("" when not fetched).
	Content string
	// Pseudonym used for the dereference.
	Pseudonym string
	// RouteObservations record what each relay saw.
	RouteObservations []friendnet.Observation
	// SearcherVisibleTo lists nodes that could identify the searcher.
	SearcherVisibleTo []string
}

// Search finds handles matching query, ranks the owners by chained trust
// from the searcher, and returns the ranked hits without touching content.
func (e *Engine) Search(searcher, query string) ([]Result, error) {
	hits := e.index.Search(query)
	if len(hits) == 0 {
		return nil, ErrNoResults
	}
	ownerOf := func(handle string) string {
		if i := strings.IndexByte(handle, ':'); i >= 0 {
			return handle[:i]
		}
		return handle
	}
	candidates := make([]string, 0, len(hits))
	byOwner := make(map[string]string, len(hits))
	for _, h := range hits {
		o := ownerOf(h)
		if _, dup := byOwner[o]; !dup {
			candidates = append(candidates, o)
			byOwner[o] = h
		}
	}
	ranked := e.ranker.Rank(searcher, candidates)
	out := make([]Result, 0, len(ranked))
	for _, c := range ranked {
		out = append(out, Result{Owner: c.User, Handle: byOwner[c.User], Score: c.Score, Chain: c.Chain})
	}
	return out, nil
}

// Fetch completes the flow for one result: friend-routes the request to the
// owner and dereferences pseudonymously with the credential. maxRoute bounds
// the friend chain (0 = unbounded).
func (e *Engine) Fetch(searcher string, res Result, cred *zkpauth.Credential, maxRoute int) (*Outcome, error) {
	outcome := &Outcome{}
	// Friend-route to the owner (searcher privacy on the path).
	handleName := strings.TrimPrefix(res.Handle, res.Owner+":")
	route, err := e.routing.Query(searcher, res.Owner, handleName, maxRoute)
	if err != nil {
		return nil, fmt.Errorf("securesearch: routing: %w", err)
	}
	outcome.RouteObservations = route.Observations
	outcome.SearcherVisibleTo = friendnet.SearcherVisibleTo(route, searcher)

	// Pseudonymous ZKP dereference at the owner.
	owner, ok := e.owners[res.Owner]
	if !ok {
		return nil, fmt.Errorf("securesearch: unknown owner %q", res.Owner)
	}
	req, err := cred.NewRequest(res.Handle)
	if err != nil {
		return nil, fmt.Errorf("securesearch: building request: %w", err)
	}
	outcome.Pseudonym = req.Pseudonym
	content, err := owner.Serve(req)
	if err != nil {
		return outcome, fmt.Errorf("%w: %v", ErrNoAccess, err)
	}
	outcome.Content = content
	return outcome, nil
}

// SearchAndFetch runs the complete flow, fetching the top-ranked reachable
// result.
func (e *Engine) SearchAndFetch(searcher, query string, cred *zkpauth.Credential, maxRoute int) (*Outcome, error) {
	results, err := e.Search(searcher, query)
	if err != nil {
		return nil, err
	}
	var lastErr error = ErrNoResults
	for _, res := range results {
		if res.Score <= 0 {
			break // remaining candidates are unreachable through trust
		}
		outcome, err := e.Fetch(searcher, res, cred, maxRoute)
		if err != nil {
			lastErr = err
			continue
		}
		outcome.Results = results
		return outcome, nil
	}
	return nil, lastErr
}
