// Package godosn is a security and privacy framework for distributed online
// social networks (DOSNs), reproducing the classification of "Security and
// Privacy of Distributed Online Social Networks" (Taheri Boshrooyeh, Küpçü,
// Özkasap — ICDCS 2015) as a working system.
//
// The framework implements every row of the paper's Table I:
//
//   - Data privacy: information substitution, symmetric key encryption,
//     public key encryption, attribute-based encryption (CP-ABE),
//     identity-based broadcast encryption, and hybrid encryption — all
//     behind one Group interface (internal/social/privacy).
//   - Data integrity: signed messages (owner/content), hash-chained
//     timelines with cross-publisher anchors, Frientegrity-style fork
//     consistent walls, and per-post comment keys (internal/social/
//     integrity, internal/crypto/...).
//   - Secure social search: blind-signature subscriptions, OPRF key
//     dissemination, proxy aliases, trusted-friend routing, pseudonymous
//     ZKP access, resource handles, and trust-chain ranking
//     (internal/search/...).
//
// The architectures of the paper's Section II-B — structured DHT,
// unstructured gossip, semi-structured super-peers, hybrid, and server
// federation — run on a deterministic simulated network
// (internal/overlay/...). internal/core composes everything into a running
// DOSN; cmd/dosnd boots one, cmd/dosnbench regenerates the experiment
// tables (E1–E26, see DESIGN.md and EXPERIMENTS.md), and examples/ walks
// focused attack scenarios.
package godosn
