// Package zkpauth implements pseudonymous search with zero-knowledge access
// proofs (paper Section V-B): "A user can use a pseudonym while searching in
// the network, and when (s)he wants to reach a content belonging to another
// person, (s)he uses ZKP to prove having privileges to access" (the Backes
// et al. security API approach).
//
// The data owner registers access credentials: for each authorized party it
// records only the public image of a secret credential (a discrete-log
// statement). A searcher presents a pseudonym, the credential's public
// image, and a Schnorr proof of knowledge bound to the request context; the
// owner learns that *some* authorized credential was used — not which user
// is behind the pseudonym, unless it correlates credential images across
// queries (which the Observations record makes visible for experiments).
package zkpauth

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"godosn/internal/crypto/zkp"
)

// Errors returned by this package.
var (
	ErrNotAuthorized = errors.New("zkpauth: credential not authorized")
	ErrBadProof      = errors.New("zkpauth: access proof invalid")
	ErrNoResource    = errors.New("zkpauth: no such resource")
)

// Credential is the searcher-side secret: a ZKP witness plus its public
// statement.
type Credential struct {
	witness   *zkp.Witness
	statement *zkp.Statement
}

// NewCredential creates a fresh credential.
func NewCredential() (*Credential, error) {
	w, s, err := zkp.NewWitness()
	if err != nil {
		return nil, fmt.Errorf("zkpauth: creating credential: %w", err)
	}
	return &Credential{witness: w, statement: s}, nil
}

// Statement returns the public image the owner whitelists.
func (c *Credential) Statement() *zkp.Statement { return c.statement }

// Request is a pseudonymous access request.
type Request struct {
	// Pseudonym is a fresh random handle; it carries no identity.
	Pseudonym string
	// Resource names the item requested.
	Resource string
	// Statement is the credential's public image.
	Statement *zkp.Statement
	// Proof proves knowledge of the credential, bound to this request.
	Proof *zkp.Proof
}

// context binds a proof to pseudonym+resource so a proof cannot be replayed
// for a different request.
func requestContext(pseudonym, resource string) []byte {
	return []byte("godosn/zkpauth/request-v1\x00" + pseudonym + "\x00" + resource)
}

// NewRequest builds a pseudonymous request for a resource.
func (c *Credential) NewRequest(resource string) (*Request, error) {
	var raw [16]byte
	if _, err := io.ReadFull(rand.Reader, raw[:]); err != nil {
		return nil, fmt.Errorf("zkpauth: generating pseudonym: %w", err)
	}
	pseudonym := "anon-" + hex.EncodeToString(raw[:])
	proof, err := c.witness.Prove(c.statement, requestContext(pseudonym, resource))
	if err != nil {
		return nil, fmt.Errorf("zkpauth: proving: %w", err)
	}
	return &Request{
		Pseudonym: pseudonym,
		Resource:  resource,
		Statement: c.statement,
		Proof:     proof,
	}, nil
}

// Owner guards resources with a credential whitelist. It is safe for
// concurrent use.
type Owner struct {
	mu         sync.Mutex
	authorized map[string]struct{} // hex statement -> present
	resources  map[string]string
	// observations records the (pseudonym, statementHex) pairs seen, the
	// linkage surface an analyst can study.
	observations []Observation
}

// Observation is what the owner records per request.
type Observation struct {
	// Pseudonym the request used.
	Pseudonym string
	// StatementHex identifies the credential image (NOT the user).
	StatementHex string
	// Resource requested.
	Resource string
	// Granted reports the outcome.
	Granted bool
}

// NewOwner creates an owner with no resources or authorizations.
func NewOwner() *Owner {
	return &Owner{
		authorized: make(map[string]struct{}),
		resources:  make(map[string]string),
	}
}

// Publish registers a resource value.
func (o *Owner) Publish(resource, value string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.resources[resource] = value
}

// Authorize whitelists a credential's public statement.
func (o *Owner) Authorize(stmt *zkp.Statement) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.authorized[hex.EncodeToString(stmt.X)] = struct{}{}
}

// Revoke removes a credential from the whitelist.
func (o *Owner) Revoke(stmt *zkp.Statement) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.authorized, hex.EncodeToString(stmt.X))
}

// Serve validates a pseudonymous request and returns the resource value.
func (o *Owner) Serve(req *Request) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	stmtHex := hex.EncodeToString(req.Statement.X)
	obs := Observation{Pseudonym: req.Pseudonym, StatementHex: stmtHex, Resource: req.Resource}
	defer func() { o.observations = append(o.observations, obs) }()

	if _, ok := o.authorized[stmtHex]; !ok {
		return "", fmt.Errorf("%w: %s", ErrNotAuthorized, req.Pseudonym)
	}
	if err := zkp.Verify(req.Statement, req.Proof, requestContext(req.Pseudonym, req.Resource)); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	value, ok := o.resources[req.Resource]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoResource, req.Resource)
	}
	obs.Granted = true
	return value, nil
}

// Observations returns the owner's request log.
func (o *Owner) Observations() []Observation {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Observation(nil), o.observations...)
}
