// Package abe implements ciphertext-policy attribute-based encryption
// (CP-ABE) over monotone boolean access structures, pairing-free.
//
// The paper (Section III-D) classifies ABE as the data-privacy mechanism used
// by Persona and Cachet: a message is encrypted under an access structure
// (a logical expression over attributes such as ('relative' OR 'painter')),
// and a user holding a key for a satisfying attribute set decrypts.
//
// Construction (documented substitution; see DESIGN.md §2). The pairing-based
// CP-ABE scheme the paper cites (Bethencourt et al.) is replaced by:
//
//   - An Authority publishes, per attribute, a P-256 public parameter; it
//     keeps the matching private scalar as the attribute secret.
//   - CP-ABE Encrypt compiles the policy into a tree of threshold gates,
//     Shamir-shares a fresh message seed down the tree, and encrypts each
//     leaf share to the leaf attribute's public parameter (ECIES).
//   - A user key is the set of attribute private keys for the user's
//     attributes; Decrypt recovers exactly the leaf shares for attributes the
//     user holds and reconstructs the seed if and only if the tree is
//     satisfied.
//
// The access-structure semantics, the cost structure the survey reasons about
// (single encryption per group, ciphertext growing with the policy,
// revocation forcing re-keying plus re-encryption of prior data), and the key
// distribution model are all preserved. The known deviation is collusion
// resistance across users, which fundamentally requires pairings; the
// Authority issuing per-user randomized keys is out of scope and flagged in
// DESIGN.md.
package abe

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"godosn/internal/crypto/pubkey"
)

// GateKind distinguishes the node types of a policy tree.
type GateKind int

// Policy node kinds.
const (
	GateLeaf GateKind = iota + 1
	GateAnd
	GateOr
	GateThreshold
)

// Policy is a node of a monotone access-structure tree.
type Policy struct {
	Kind GateKind
	// Attribute is set for GateLeaf nodes.
	Attribute string
	// K is the threshold for GateThreshold nodes (k of len(Children)).
	K int
	// Children are the sub-policies for non-leaf nodes.
	Children []*Policy
}

// Errors returned by policy handling.
var (
	ErrEmptyPolicy  = errors.New("abe: empty policy")
	ErrBadPolicy    = errors.New("abe: malformed policy")
	ErrParse        = errors.New("abe: policy parse error")
	ErrNotSatisfied = errors.New("abe: key attributes do not satisfy policy")
	ErrUnknownAttr  = errors.New("abe: unknown attribute")
)

// Attr returns a leaf policy requiring the given attribute.
func Attr(name string) *Policy {
	return &Policy{Kind: GateLeaf, Attribute: name}
}

// And returns a policy satisfied only when all children are satisfied.
func And(children ...*Policy) *Policy {
	return &Policy{Kind: GateAnd, Children: children}
}

// Or returns a policy satisfied when any child is satisfied.
func Or(children ...*Policy) *Policy {
	return &Policy{Kind: GateOr, Children: children}
}

// Threshold returns a policy satisfied when at least k children are.
func Threshold(k int, children ...*Policy) *Policy {
	return &Policy{Kind: GateThreshold, K: k, Children: children}
}

// maxDepth bounds how deeply gates nest: in a tree Validate accepts and in
// the text ParsePolicy reads, where every gate's parentheses count, those of
// a group holding one child too. Every walk over a policy recurses, and a
// policy reaches a reader from a replica inside a ciphertext; unbounded, a
// deep enough one ends the process with a stack overflow instead of an
// error.
const maxDepth = 64

// Validate checks structural well-formedness of the policy tree, including
// that no more than 64 gates nest.
func (p *Policy) Validate() error {
	return p.validate(0)
}

// validate is Validate on a node with the given number of gates above it.
func (p *Policy) validate(above int) error {
	if p == nil {
		return ErrEmptyPolicy
	}
	switch p.Kind {
	case GateLeaf:
		if p.Attribute == "" {
			return fmt.Errorf("%w: leaf with empty attribute", ErrBadPolicy)
		}
		if len(p.Children) != 0 {
			return fmt.Errorf("%w: leaf with children", ErrBadPolicy)
		}
		return nil
	case GateAnd, GateOr:
		if len(p.Children) == 0 {
			return fmt.Errorf("%w: gate with no children", ErrBadPolicy)
		}
	case GateThreshold:
		if len(p.Children) == 0 {
			return fmt.Errorf("%w: threshold with no children", ErrBadPolicy)
		}
		if p.K < 1 || p.K > len(p.Children) {
			return fmt.Errorf("%w: threshold %d of %d", ErrBadPolicy, p.K, len(p.Children))
		}
	default:
		return fmt.Errorf("%w: unknown gate kind %d", ErrBadPolicy, p.Kind)
	}
	if above == maxDepth {
		return fmt.Errorf("%w: gates nested deeper than %d", ErrBadPolicy, maxDepth)
	}
	for _, c := range p.Children {
		if err := c.validate(above + 1); err != nil {
			return err
		}
	}
	return nil
}

// threshold returns the effective Shamir threshold of the node.
func (p *Policy) threshold() int {
	switch p.Kind {
	case GateAnd:
		return len(p.Children)
	case GateOr:
		return 1
	case GateThreshold:
		return p.K
	default:
		return 1
	}
}

// Satisfied reports whether the given attribute set satisfies the policy.
func (p *Policy) Satisfied(attrs []string) bool {
	set := make(map[string]struct{}, len(attrs))
	for _, a := range attrs {
		set[a] = struct{}{}
	}
	return p.satisfied(set)
}

func (p *Policy) satisfied(set map[string]struct{}) bool {
	if p == nil {
		return false
	}
	if p.Kind == GateLeaf {
		_, ok := set[p.Attribute]
		return ok
	}
	count := 0
	for _, c := range p.Children {
		if c.satisfied(set) {
			count++
		}
	}
	return count >= p.threshold()
}

// Attributes returns the sorted set of attributes mentioned in the policy.
func (p *Policy) Attributes() []string {
	set := make(map[string]struct{})
	p.collectAttrs(set)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (p *Policy) collectAttrs(set map[string]struct{}) {
	if p == nil {
		return
	}
	if p.Kind == GateLeaf {
		set[p.Attribute] = struct{}{}
		return
	}
	for _, c := range p.Children {
		c.collectAttrs(set)
	}
}

// String renders the policy in the surface syntax accepted by ParsePolicy.
func (p *Policy) String() string {
	return string(p.appendText(make([]byte, 0, p.textLen())))
}

// appendText appends String's rendering of the policy to dst.
func (p *Policy) appendText(dst []byte) []byte {
	if p == nil {
		return dst
	}
	switch p.Kind {
	case GateLeaf:
		return append(dst, p.Attribute...)
	case GateAnd:
		return append(appendChildren(append(dst, '('), p.Children, " AND "), ')')
	case GateOr:
		return append(appendChildren(append(dst, '('), p.Children, " OR "), ')')
	case GateThreshold:
		dst = append(strconv.AppendInt(dst, int64(p.K), 10), "-of("...)
		return append(appendChildren(dst, p.Children, ", "), ')')
	default:
		return append(dst, "<invalid>"...)
	}
}

// appendChildren appends the children's renderings, sep between each two.
func appendChildren(dst []byte, ps []*Policy, sep string) []byte {
	for i, c := range ps {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = c.appendText(dst)
	}
	return dst
}

// textLen returns the length of String's rendering, so Encrypt can size the
// ciphertext's buffer before writing the policy text into it.
func (p *Policy) textLen() int {
	if p == nil {
		return 0
	}
	switch p.Kind {
	case GateLeaf:
		return len(p.Attribute)
	case GateAnd:
		return len("()") + childrenLen(p.Children, " AND ")
	case GateOr:
		return len("()") + childrenLen(p.Children, " OR ")
	case GateThreshold:
		var digits [20]byte
		return len(strconv.AppendInt(digits[:0], int64(p.K), 10)) + len("-of()") + childrenLen(p.Children, ", ")
	default:
		return len("<invalid>")
	}
}

// childrenLen is the length appendChildren appends.
func childrenLen(ps []*Policy, sep string) int {
	n := 0
	for i, c := range ps {
		if i > 0 {
			n += len(sep)
		}
		n += c.textLen()
	}
	return n
}

// unknownAttr returns the first leaf attribute, depth first, that attrs has
// no parameter for.
func (p *Policy) unknownAttr(attrs map[string]*pubkey.EncryptionPublicKey) (string, bool) {
	if p.Kind == GateLeaf {
		_, ok := attrs[p.Attribute]
		return p.Attribute, !ok
	}
	for _, c := range p.Children {
		if attr, unknown := c.unknownAttr(attrs); unknown {
			return attr, true
		}
	}
	return "", false
}

// ParsePolicy parses the textual policy syntax used throughout the examples:
//
//	relative
//	(relative AND doctor)
//	(relative OR painter)
//	2-of(relative, doctor, painter)
//
// AND and OR are case insensitive and may not be mixed within a single
// parenthesis group without nesting. Parentheses nest at most 64 deep.
func ParsePolicy(s string) (*Policy, error) {
	p := &policyParser{input: []byte(s), build: true}
	pol, err := p.parse()
	if err != nil {
		return nil, err
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return pol, nil
}

// CanonicalPolicy checks text as ParsePolicy does and returns the policy in
// its canonical syntax, the one String renders and Encrypt seals a body
// under. When text is already canonical it is returned itself, and the check
// builds no tree and allocates nothing.
func CanonicalPolicy(text []byte) ([]byte, error) {
	p := policyParser{input: text}
	if _, err := p.parse(); err != nil {
		return nil, err
	}
	if p.canon == len(text) {
		return text, nil
	}
	pol, err := ParsePolicy(string(text))
	if err != nil {
		return nil, err
	}
	out := []byte(pol.String())
	return out[:len(out):len(out)], nil
}

type policyParser struct {
	input []byte
	pos   int
	// depth counts the parentheses open at pos.
	depth int
	// build makes the parse return the tree; without it every node is nil
	// and the parse only checks the text.
	build bool
	// canon is how much of the input equals String's rendering of what has
	// been parsed so far, or -1 once it differs.
	canon int
}

// parse reads the whole input as one policy.
func (p *policyParser) parse() (*Policy, error) {
	pol, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("%w: trailing input at %d", ErrParse, p.pos)
	}
	return pol, nil
}

// render follows String: the rendering of what was just parsed continues
// with s. canon advances past s while the input reads s there too.
func (p *policyParser) render(s []byte) {
	if p.canon >= 0 && bytes.HasPrefix(p.input[p.canon:], s) {
		p.canon += len(s)
	} else {
		p.canon = -1
	}
}

// open enters a gate's parentheses, refusing to nest past maxDepth.
func (p *policyParser) open() error {
	if p.depth == maxDepth {
		return fmt.Errorf("%w: nested deeper than %d at %d", ErrParse, maxDepth, p.pos)
	}
	p.depth++
	return nil
}

func (p *policyParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *policyParser) parseExpr() (*Policy, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return nil, fmt.Errorf("%w: unexpected end of input", ErrParse)
	}
	// k-of(...) threshold form.
	if pol, ok, err := p.tryThreshold(); err != nil {
		return nil, err
	} else if ok {
		return pol, nil
	}
	if p.input[p.pos] == '(' {
		return p.parseGroup()
	}
	return p.parseLeaf()
}

func (p *policyParser) tryThreshold() (*Policy, bool, error) {
	numEnd := p.pos
	for numEnd < len(p.input) && p.input[numEnd] >= '0' && p.input[numEnd] <= '9' {
		numEnd++
	}
	if numEnd == p.pos || !bytes.HasPrefix(p.input[numEnd:], []byte("-of(")) {
		return nil, false, nil
	}
	digits := p.input[p.pos:numEnd]
	k := 0
	for _, ch := range digits {
		k = k*10 + int(ch-'0')
	}
	// String renders k in decimal: digits are that rendering unless they
	// have a leading zero or overflowed k, and more than 18 never render a
	// threshold any policy can meet.
	if digits[0] == '0' || len(digits) > 18 {
		p.canon = -1
	}
	p.render(digits)
	p.render([]byte("-of("))
	p.pos = numEnd + len("-of(")
	if err := p.open(); err != nil {
		return nil, false, err
	}
	var children []*Policy
	n := 0
	for {
		if n > 0 {
			p.render([]byte(", "))
		}
		child, err := p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		if p.build {
			children = append(children, child)
		}
		n++
		p.skipSpace()
		if p.pos < len(p.input) && p.input[p.pos] == ',' {
			p.pos++
			continue
		}
		break
	}
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != ')' {
		return nil, false, fmt.Errorf("%w: expected ')' at %d", ErrParse, p.pos)
	}
	p.pos++
	p.depth--
	p.render([]byte(")"))
	if k < 1 || k > n { // Validate refuses it
		p.canon = -1
	}
	if !p.build {
		return nil, true, nil
	}
	return Threshold(k, children...), true, nil
}

func (p *policyParser) parseGroup() (*Policy, error) {
	p.render([]byte("("))
	p.pos++ // consume '('
	if err := p.open(); err != nil {
		return nil, err
	}
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var children []*Policy
	if p.build {
		children = append(children, first)
	}
	n := 1
	var op GateKind
	for {
		p.skipSpace()
		if p.pos < len(p.input) && p.input[p.pos] == ')' {
			p.pos++
			break
		}
		word := p.peekWord()
		kind := GateAnd
		switch {
		case bytes.EqualFold(word, []byte("AND")):
		case bytes.EqualFold(word, []byte("OR")):
			kind = GateOr
		default:
			return nil, fmt.Errorf("%w: expected AND/OR at %d, got %q", ErrParse, p.pos, word)
		}
		if op == 0 {
			op = kind
		} else if op != kind {
			return nil, fmt.Errorf("%w: mixed AND/OR without nesting at %d", ErrParse, p.pos)
		}
		if kind == GateAnd {
			p.render([]byte(" AND "))
		} else {
			p.render([]byte(" OR "))
		}
		p.pos += len(word)
		child, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.build {
			children = append(children, child)
		}
		n++
	}
	p.depth--
	p.render([]byte(")"))
	if n == 1 {
		// The group is its child, which String renders without it.
		p.canon = -1
		return first, nil
	}
	if !p.build {
		return nil, nil
	}
	if op == GateAnd {
		return And(children...), nil
	}
	return Or(children...), nil
}

func (p *policyParser) peekWord() []byte {
	p.skipSpace()
	end := p.pos
	for end < len(p.input) && isWordChar(p.input[end]) {
		end++
	}
	return p.input[p.pos:end]
}

func (p *policyParser) parseLeaf() (*Policy, error) {
	p.skipSpace()
	name := p.peekWord()
	if len(name) == 0 {
		return nil, fmt.Errorf("%w: expected attribute at %d", ErrParse, p.pos)
	}
	p.render(name)
	p.pos += len(name)
	if !p.build {
		return nil, nil
	}
	return Attr(string(name)), nil
}

func isWordChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_', c == '-', c == ':', c == '.':
		return true
	default:
		return false
	}
}
