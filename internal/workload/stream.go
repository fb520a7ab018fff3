package workload

import (
	"fmt"
	"math/rand"
	"strconv"
)

// This file is the streaming workload driver: it generates a social
// workload over an arbitrarily large user population without ever
// materializing that population. The graph generators above build O(N)
// adjacency state up front — fine for hundreds of users, fatal for a
// million. A Stream samples actors from a seeded Zipf distribution (the
// skew LibreSocial reports for P2P OSN traffic) and actions from
// DefaultMix, producing each step on demand; the only state it keeps is a
// bounded window of per-user post counters for the users the workload
// actually touched, so resident memory scales with the working set (capped
// at maxTracked users), never with Users.
//
// Determinism: every sample derives from Config.Seed; two streams with the
// same config emit byte-identical action sequences. Payload bytes are a
// pure function of (user, sequence), no RNG.

// ActorWeighting selects how a Stream samples acting users.
type ActorWeighting int

const (
	// WeightZipf draws actors from a Zipf distribution over user rank —
	// popularity follows index order (the original Stream behaviour).
	WeightZipf ActorWeighting = iota
	// WeightGraph draws actors proportionally to their expected
	// Barabási–Albert follower degree, so key popularity matches the
	// social graph instead of rank order. In a BA graph grown to N users,
	// the i-th oldest user's expected degree scales as (i/N)^(-1/2);
	// normalizing, the cumulative weight of the first k users is
	// sqrt(k/N), so inverse-CDF sampling is closed-form: draw u in [0,1)
	// and take actor = floor(u² · N). O(1) per sample, no materialized
	// graph, and the same heavy tail BarabasiAlbert builds explicitly.
	WeightGraph
)

// streamSkew is the Zipf skew over users under WeightZipf: a skewed but
// heavy-tailed OSN-like popularity curve.
const streamSkew = 1.2

// maxTracked bounds the per-user counter window — the stream's only growing
// state. When a new user would exceed it, the oldest tracked user is
// forgotten (FIFO, deterministic); a later post by a forgotten user restarts
// its sequence at 0, overwriting its earliest keys, which a workload
// tolerates by construction (same key, same payload size).
const maxTracked = 1 << 20

// StreamConfig parameterizes a streaming workload. Actions follow
// DefaultMix.
type StreamConfig struct {
	// Users is the population size being simulated. Only sampled users
	// cost memory.
	Users int
	// Ops is the number of actions the stream emits before Next reports
	// exhaustion.
	Ops int
	// PostBytes is the payload size of generated posts and comments
	// (default 200).
	PostBytes int
	// Weighting selects the actor-popularity model (default WeightZipf;
	// WeightGraph follows BA follower degrees).
	Weighting ActorWeighting
	// Seed drives every sampling decision.
	Seed int64
}

// Action is one generated workload step.
type Action struct {
	// Kind is what the actor does. A ReadFeed against a user with no
	// posts yet is emitted as a Post instead (write-on-first-read), so
	// every read references a key that exists.
	Kind ActionKind
	// Actor is the acting user's index in [0, Users).
	Actor int
	// Key is the content key the action touches (posts, comments, reads)
	// or the search term key (searches).
	Key string
	// Value is the payload for writes; nil for reads and searches.
	Value []byte
	// Seq is the action's position in the stream.
	Seq int
}

// userState is one tracked user's counters.
type userState struct {
	posts    uint32
	comments uint32
}

// Stream generates actions on demand. Not safe for concurrent use; drive
// it from one goroutine and fan the emitted actions out.
type Stream struct {
	cfg      StreamConfig
	zipf     *Zipf
	rng      *rand.Rand
	actorRng *rand.Rand // WeightGraph draws (separate stream, like zipf's)
	total    float64    // DefaultMix weight sum

	users      map[int]*userState
	fifo       []int // tracked users in first-touch order, for bounded eviction
	maxTracked int   // window bound: maxTracked, lowered by tests to exercise eviction
	seq        int
}

// NewStream validates the config and builds the samplers.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.Users < 1 || cfg.Ops < 0 {
		return nil, fmt.Errorf("%w: NewStream(users=%d, ops=%d)", ErrBadParams, cfg.Users, cfg.Ops)
	}
	if cfg.PostBytes <= 0 {
		cfg.PostBytes = 200
	}
	if cfg.Weighting != WeightZipf && cfg.Weighting != WeightGraph {
		return nil, fmt.Errorf("%w: NewStream(weighting=%d)", ErrBadParams, cfg.Weighting)
	}
	z, err := NewZipf(cfg.Users, streamSkew, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mix := DefaultMix()
	return &Stream{
		cfg:        cfg,
		zipf:       z,
		rng:        rand.New(rand.NewSource(cfg.Seed + 1)),
		actorRng:   rand.New(rand.NewSource(cfg.Seed + 2)),
		total:      mix.Post + mix.Comment + mix.Read + mix.Search,
		users:      make(map[int]*userState),
		maxTracked: maxTracked,
	}, nil
}

// sampleActor draws the acting user under the configured weighting.
func (s *Stream) sampleActor() int {
	if s.cfg.Weighting == WeightGraph {
		u := s.actorRng.Float64()
		a := int(u * u * float64(s.cfg.Users))
		if a >= s.cfg.Users {
			a = s.cfg.Users - 1
		}
		return a
	}
	return s.zipf.Next()
}

// appendUserName appends prefix and the canonical name of user i ("user-"
// and the index zero-padded to four digits) to buf. A negative index takes
// Sprintf's padding, which counts the sign.
func appendUserName(buf []byte, prefix string, i int) []byte {
	buf = append(buf, prefix...)
	if i < 0 {
		return fmt.Appendf(buf, "user-%04d", i)
	}
	buf = append(buf, "user-"...)
	for pad := 1000; pad > i && pad > 1; pad /= 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(i), 10)
}

// contentKey renders "<prefix>user-NNNN/<n>" in a stack buffer: the string
// is the key's one allocation.
func contentKey(prefix string, user int, n uint32) string {
	var arr [48]byte
	buf := append(appendUserName(arr[:0], prefix, user), '/')
	return string(strconv.AppendUint(buf, uint64(n), 10))
}

// PostKey is the content key of a user's n-th post.
func PostKey(user int, n uint32) string { return contentKey("post/", user, n) }

// CommentKey is the content key of a user's n-th comment.
func CommentKey(user int, n uint32) string { return contentKey("comment/", user, n) }

// SearchKey is the index key a search for a user's content consults.
func SearchKey(user int) string {
	var arr [32]byte
	return string(appendUserName(arr[:0], "search/", user))
}

// Remaining reports how many actions the stream will still emit.
func (s *Stream) Remaining() int { return s.cfg.Ops - s.seq }

// touch returns (creating if needed) a user's counters, evicting the
// oldest tracked user when the window is full.
func (s *Stream) touch(u int) *userState {
	if st, ok := s.users[u]; ok {
		return st
	}
	if len(s.users) >= s.maxTracked {
		oldest := s.fifo[0]
		s.fifo = s.fifo[1:]
		delete(s.users, oldest)
	}
	st := &userState{}
	s.users[u] = st
	s.fifo = append(s.fifo, u)
	return st
}

// payload builds a deterministic post body: a self-describing header
// followed by pattern bytes, PostBytes long.
func (s *Stream) payload(key string, seq int) []byte {
	buf := make([]byte, s.cfg.PostBytes)
	header := fmt.Sprintf("%s#%d|", key, seq)
	n := copy(buf, header)
	for i := n; i < len(buf); i++ {
		buf[i] = byte(33 + (i*31+seq)%90)
	}
	return buf
}

// Next emits the next action, or ok=false when Ops are exhausted.
func (s *Stream) Next() (Action, bool) {
	if s.seq >= s.cfg.Ops {
		return Action{}, false
	}
	seq := s.seq
	s.seq++
	// Sample order (kind first, then actor) is fixed: it is part of the
	// determinism contract.
	x := s.rng.Float64() * s.total
	actor := s.sampleActor()
	m := DefaultMix()
	var kind ActionKind
	switch {
	case x < m.Post:
		kind = ActionPost
	case x < m.Post+m.Comment:
		kind = ActionComment
	case x < m.Post+m.Comment+m.Read:
		kind = ActionReadFeed
	default:
		kind = ActionSearch
	}

	switch kind {
	case ActionComment:
		st := s.touch(actor)
		key := CommentKey(actor, st.comments)
		st.comments++
		return Action{Kind: ActionComment, Actor: actor, Key: key, Value: s.payload(key, seq), Seq: seq}, true
	case ActionReadFeed:
		st := s.touch(actor)
		if st.posts == 0 {
			// Write-on-first-read bootstrap: the first touch of a cold
			// feed publishes the post the read would have fetched.
			key := PostKey(actor, 0)
			st.posts = 1
			return Action{Kind: ActionPost, Actor: actor, Key: key, Value: s.payload(key, seq), Seq: seq}, true
		}
		n := uint32(s.rng.Intn(int(st.posts)))
		return Action{Kind: ActionReadFeed, Actor: actor, Key: PostKey(actor, n), Seq: seq}, true
	case ActionSearch:
		return Action{Kind: ActionSearch, Actor: actor, Key: SearchKey(actor), Seq: seq}, true
	default: // ActionPost
		st := s.touch(actor)
		key := PostKey(actor, st.posts)
		st.posts++
		return Action{Kind: ActionPost, Actor: actor, Key: key, Value: s.payload(key, seq), Seq: seq}, true
	}
}
