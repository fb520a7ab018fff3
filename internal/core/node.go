package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"time"

	"godosn/internal/crypto/hashchain"
	"godosn/internal/overlay"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/content"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
	"godosn/internal/social/privacy"
)

// Node is one user's view of the DOSN: their keys, timeline, wall, profile,
// groups, and access to the overlay.
type Node struct {
	// User holds the node's key material.
	User *identity.User
	// Timeline is the user's hash-chained publication history.
	Timeline *integrity.Timeline
	// Profile is the user's attribute set.
	Profile *content.Profile
	// Wall is the user's shared object on untrusted storage.
	Wall *integrity.Wall

	net    *Network
	groups map[string]privacy.Group
	// reader tracks this node's fork-consistent views of other walls.
	readers map[string]*integrity.Reader
	posts   uint64
}

func newNode(net *Network, u *identity.User) *Node {
	return &Node{
		User:     u,
		Timeline: integrity.NewTimeline(u),
		Profile:  content.NewProfile(u.Name),
		Wall:     integrity.NewWall(u.Name, net.wallStorage),
		net:      net,
		groups:   make(map[string]privacy.Group),
		readers:  make(map[string]*integrity.Reader),
	}
}

// Name returns the node's user name.
func (nd *Node) Name() string { return nd.User.Name }

// CreateGroup creates an access-control group under the given scheme with
// privacy.NewGroup's defaults, owned by this node, whose user is added as
// the first member.
func (nd *Node) CreateGroup(name string, scheme privacy.Scheme) (privacy.Group, error) {
	if _, exists := nd.groups[name]; exists {
		return nil, fmt.Errorf("%w: group %s", ErrDuplicateName, name)
	}
	g, err := privacy.NewGroup(scheme, name, nd.net.Registry, nd.User)
	if err != nil {
		return nil, fmt.Errorf("core: creating group %q: %w", name, err)
	}
	if err := g.Add(nd.Name()); err != nil {
		return nil, err
	}
	nd.groups[name] = g
	return g, nil
}

// Group returns one of the node's groups.
func (nd *Node) Group(name string) (privacy.Group, error) {
	g, ok := nd.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownGroup, name)
	}
	return g, nil
}

// ShareGroup hands another node a handle on this group, modeling the
// out-of-band delivery of group key material to a member.
func (nd *Node) ShareGroup(name string, with *Node) error {
	g, err := nd.Group(name)
	if err != nil {
		return err
	}
	with.groups[name] = g
	return nil
}

// postKey is the overlay key for a user's post.
func postKey(author string, seq uint64) string {
	return fmt.Sprintf("post/%s/%d", author, seq)
}

// postTime is a post's simulated creation time: one second per post.
func postTime(seq uint64) time.Time {
	return time.Unix(0, int64(seq)*int64(time.Second))
}

// signPost appends a post to the node's timeline and returns the signed
// entry as the bytes its owner signed followed by the signature: the
// payload of the post's sealed record. The entry's payload is the post seq
// (8 bytes, big-endian) then the marshaled envelope. That seq, not the
// entry's own, binds the record to its key, because a republished post is a
// later entry of the same chain.
func (nd *Node) signPost(seq uint64, env privacy.Envelope) ([]byte, error) {
	wire, err := privacy.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("core: marshaling envelope: %w", err)
	}
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(wire)), seq)
	e, err := nd.Timeline.Publish(append(payload, wire...))
	if err != nil {
		return nil, err
	}
	return e.Marshal(), nil
}

// openRecord is the one read check for every key this package writes: a
// post. It verifies the sealed record's checksum, then that it holds a
// timeline entry whose author and post seq match the key and whose
// signature verifies against the author's registered key; the entry's
// payload is the marshaled envelope. Every failure wraps
// scrub.ErrRecord, so resilience.ErrCorrupt, and an owner that does not
// check out also wraps integrity.ErrForgedOwner.
func (n *Network) openRecord(key string, record []byte) ([]byte, error) {
	payload, err := scrub.Open(key, record)
	if err != nil {
		return nil, err
	}
	author, seq, ok := parsePostKey(key)
	if !ok {
		return nil, fmt.Errorf("%w: key %q is not a post key", scrub.ErrRecord, key)
	}
	e, err := hashchain.ParseEntry(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: key %q: %v", scrub.ErrRecord, key, err)
	}
	if e.Author != author {
		return nil, fmt.Errorf("%w: %w: key %q holds an entry by %q", scrub.ErrRecord, integrity.ErrForgedOwner, key, e.Author)
	}
	if len(e.Payload) < 8 || binary.BigEndian.Uint64(e.Payload) != seq {
		return nil, fmt.Errorf("%w: key %q holds another post", scrub.ErrRecord, key)
	}
	if err := n.Registry.VerifySignature(author, payload[:len(payload)-len(e.Signature)], e.Signature); err != nil {
		return nil, fmt.Errorf("%w: %w: key %q: %v", scrub.ErrRecord, integrity.ErrForgedOwner, key, err)
	}
	return e.Payload[8:], nil
}

// parsePostKey inverts postKey.
func parsePostKey(key string) (author string, seq uint64, ok bool) {
	rest, ok := strings.CutPrefix(key, "post/")
	i := strings.LastIndexByte(rest, '/')
	if !ok || i < 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(rest[i+1:], 10, 64)
	return rest[:i], seq, err == nil
}

// Publish encrypts body for the named group, signs it as the next entry of
// the node's timeline, appends that entry to the wall, and stores it in the
// overlay as a sealed record. Replicas hold ciphertext they cannot read
// ("the replica nodes are indeed another kind of service provider",
// Section I) and cannot forge. It returns the overlay operation stats
// (experiments aggregate these).
func (nd *Node) Publish(group string, body []byte) (content.Post, overlay.OpStats, error) {
	g, err := nd.Group(group)
	if err != nil {
		return content.Post{}, overlay.OpStats{}, err
	}
	env, err := g.Encrypt(body)
	if err != nil {
		return content.Post{}, overlay.OpStats{}, fmt.Errorf("core: encrypting post: %w", err)
	}
	seq := nd.posts
	nd.posts++
	// Historical integrity: the post is a signed, chained timeline entry.
	entry, err := nd.signPost(seq, env)
	if err != nil {
		return content.Post{}, overlay.OpStats{}, err
	}
	// Fork consistency: append to the wall on untrusted storage.
	if _, err := nd.Wall.Append(entry); err != nil {
		return content.Post{}, overlay.OpStats{}, err
	}
	key := postKey(nd.Name(), seq)
	st, err := nd.net.KV.Store(nd.Name(), key, scrub.Seal(key, entry))
	if err != nil {
		return content.Post{}, st, fmt.Errorf("core: storing post: %w", err)
	}
	return content.Post{Author: nd.Name(), Seq: seq, CreatedAt: postTime(seq), Envelope: env}, st, nil
}

// FetchPost retrieves another user's post record through the overlay,
// checks it through the network's one record check (checksum, key binding,
// owner signature) and decodes the envelope.
func (nd *Node) FetchPost(author string, seq uint64) (content.Post, overlay.OpStats, error) {
	key := postKey(author, seq)
	record, st, err := nd.net.KV.Lookup(nd.Name(), key)
	if err != nil {
		return content.Post{}, st, fmt.Errorf("core: fetching post %s/%d: %w", author, seq, err)
	}
	wire, err := nd.net.openRecord(key, record)
	if err != nil {
		return content.Post{}, st, fmt.Errorf("core: opening post %s/%d: %w", author, seq, err)
	}
	env, err := privacy.Unmarshal(wire)
	if err != nil {
		return content.Post{}, st, fmt.Errorf("core: decoding envelope: %w", err)
	}
	return content.Post{Author: author, Seq: seq, CreatedAt: postTime(seq), Envelope: env}, st, nil
}

// RepublishArchive re-stores a group's (re-encrypted) archive into the
// overlay after a revocation — the "previous data ... must be encrypted and
// stored again" step of Section III-D. Each re-encrypted post is a new
// timeline entry stored under the post's old key: rewriting the old entry
// would fork the owner's own chain. It assumes the group's archive order
// matches this node's post sequence for that group.
func (nd *Node) RepublishArchive(group string, seqs []uint64) (overlay.OpStats, error) {
	g, err := nd.Group(group)
	if err != nil {
		return overlay.OpStats{}, err
	}
	archive := g.Archive()
	var total overlay.OpStats
	for i, seq := range seqs {
		if i >= len(archive) {
			break
		}
		entry, err := nd.signPost(seq, archive[i])
		if err != nil {
			return total, err
		}
		key := postKey(nd.Name(), seq)
		st, err := nd.net.KV.Store(nd.Name(), key, scrub.Seal(key, entry))
		total.Add(&st)
		if err != nil {
			return total, fmt.Errorf("core: re-storing post %d: %w", seq, err)
		}
	}
	return total, nil
}

// ReadPost fetches and decrypts another user's post.
func (nd *Node) ReadPost(author string, seq uint64) ([]byte, overlay.OpStats, error) {
	post, st, err := nd.FetchPost(author, seq)
	if err != nil {
		return nil, st, err
	}
	g, ok := nd.groups[post.Envelope.Group]
	if !ok {
		return nil, st, fmt.Errorf("%w: %s", ErrUnknownGroup, post.Envelope.Group)
	}
	pt, err := g.Decrypt(nd.User, post.Envelope)
	if err != nil {
		return nil, st, fmt.Errorf("core: decrypting post: %w", err)
	}
	return pt, st, nil
}

// ReadFeed assembles the feed of all friends' posts this node can fetch and
// decrypt, in deterministic order.
func (nd *Node) ReadFeed() ([][]byte, overlay.OpStats, error) {
	var total overlay.OpStats
	feed := &content.Feed{}
	for _, friend := range nd.net.Graph.Friends(nd.Name()) {
		friendNode, err := nd.net.Node(friend)
		if err != nil {
			continue
		}
		for seq := uint64(0); seq < friendNode.posts; seq++ {
			post, st, err := nd.FetchPost(friend, seq)
			total.Add(&st)
			if err != nil {
				continue
			}
			feed.Add(post)
		}
	}
	resolve := func(group string) privacy.Group { return nd.groups[group] }
	return feed.ReadAll(nd.User, resolve), total, nil
}

// SyncWall advances this node's fork-consistent view of another user's wall.
// It returns *historytree.ForkEvidence (as error) on provable equivocation.
func (nd *Node) SyncWall(owner string) error {
	r, ok := nd.readers[owner]
	if !ok {
		ownerNode, err := nd.net.Node(owner)
		if err != nil {
			return err
		}
		r = ownerNode.Wall.NewReader(nd.Name(), nd.net.storageVK)
		nd.readers[owner] = r
	}
	return r.Sync()
}

// WallReader returns the node's reader for an owner's wall (nil before the
// first SyncWall).
func (nd *Node) WallReader(owner string) *integrity.Reader { return nd.readers[owner] }

// CrossCheckWall compares this node's view of a wall with another node's
// view — the client-to-client fork detection step of Section IV-B.
func (nd *Node) CrossCheckWall(owner string, other *Node) error {
	a := nd.readers[owner]
	b := other.readers[owner]
	return integrity.CrossCheck(a, b, nd.net.storageVK)
}

// FindUsers performs a trust-ranked friends-of-friends search — the "find
// new friends with common interests" flow of Section V, ranked per V-D.
func (nd *Node) FindUsers() []string {
	candidates := nd.net.Graph.FriendsOfFriends(nd.Name())
	ranked := nd.net.ranker.Rank(nd.Name(), candidates)
	out := make([]string, 0, len(ranked))
	for _, c := range ranked {
		if c.Score > 0 {
			out = append(out, c.User)
		}
	}
	return out
}
