// Package loctree implements Vis-à-Vis-style distributed location trees
// (paper Section II-B): "Vis-a-vis designed its own structure distributed
// location trees, which provides efficient and scalable sharing."
//
// In Vis-à-Vis each user runs a virtual individual server (VIS) and VISs
// organize into trees keyed by geographic regions: a user registers its
// presence at a leaf region, interior nodes aggregate their children, and a
// query for "friends currently in region R" descends only the subtree under
// R — cost proportional to the matching region, not the network.
//
// Regions are slash-separated paths ("/tr/istanbul/kadikoy"), and the tree
// stores only user->region presence, never content.
package loctree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrBadRegion reports a malformed region path.
var ErrBadRegion = errors.New("loctree: malformed region path")

// node is one region of the tree.
type node struct {
	children map[string]*node
	// present holds users registered exactly at this region.
	present map[string]bool
	// count aggregates presence over the whole subtree.
	count int
}

// Tree is a distributed location tree. It is safe for concurrent use.
//
// The simulation accounts cost as the number of region nodes visited per
// operation (the messages a distributed deployment would send between the
// region coordinators involved).
type Tree struct {
	mu   sync.Mutex
	root *node
	// where tracks each user's current region for moves.
	where map[string]string
}

// New creates an empty location tree.
func New() *Tree {
	return &Tree{
		root:  &node{children: make(map[string]*node), present: make(map[string]bool)},
		where: make(map[string]string),
	}
}

// splitRegion validates and splits a region path.
func splitRegion(region string) ([]string, error) {
	if !strings.HasPrefix(region, "/") {
		return nil, fmt.Errorf("%w: %q (must start with /)", ErrBadRegion, region)
	}
	if region == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.Trim(region, "/"), "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: %q (empty segment)", ErrBadRegion, region)
		}
	}
	return parts, nil
}

// Register places a user at a region (moving it if already registered
// elsewhere). It returns the number of region nodes visited.
func (t *Tree) Register(user, region string) (int, error) {
	parts, err := splitRegion(region)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	visited := 0
	if prev, ok := t.where[user]; ok && prev != region {
		visited += t.removeLocked(user, prev)
	} else if ok && prev == region {
		return 0, nil
	}
	cur := t.root
	cur.count++
	visited++
	for _, p := range parts {
		child, ok := cur.children[p]
		if !ok {
			child = &node{
				children: make(map[string]*node),
				present:  make(map[string]bool),
			}
			cur.children[p] = child
		}
		cur = child
		cur.count++
		visited++
	}
	cur.present[user] = true
	t.where[user] = region
	return visited, nil
}

// removeLocked clears a user's registration, returning nodes visited.
func (t *Tree) removeLocked(user, region string) int {
	parts, err := splitRegion(region)
	if err != nil {
		return 0
	}
	visited := 0
	cur := t.root
	cur.count--
	visited++
	for _, p := range parts {
		child, ok := cur.children[p]
		if !ok {
			return visited
		}
		cur = child
		cur.count--
		visited++
	}
	delete(cur.present, user)
	delete(t.where, user)
	return visited
}

// QueryResult is a region query's outcome plus its cost.
type QueryResult struct {
	// Users present in the queried subtree, sorted.
	Users []string
	// NodesVisited counts region nodes touched — the scalability metric.
	NodesVisited int
}

// Query returns all users under a region (inclusive of sub-regions). Only
// the matching subtree is visited, never siblings — the "efficient and
// scalable sharing" property.
func (t *Tree) Query(region string) (QueryResult, error) {
	parts, err := splitRegion(region)
	if err != nil {
		return QueryResult{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	res := QueryResult{}
	cur := t.root
	res.NodesVisited++
	for _, p := range parts {
		child, ok := cur.children[p]
		if !ok {
			return res, nil // empty region: no users
		}
		cur = child
		res.NodesVisited++
	}
	collect(cur, &res)
	sort.Strings(res.Users)
	return res, nil
}

// collect gathers users from a subtree, pruning empty branches via the
// aggregated counts.
func collect(n *node, res *QueryResult) {
	for u := range n.present {
		res.Users = append(res.Users, u)
	}
	for _, c := range n.children {
		if c.count == 0 {
			continue // aggregation lets the walk skip empty subtrees
		}
		res.NodesVisited++
		collect(c, res)
	}
}
