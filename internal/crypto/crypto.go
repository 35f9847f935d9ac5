// Package crypto provides the signature schemes used by the trusted
// components and a metered signing service that charges modelled
// signature costs to the runtime clock.
//
// Two schemes are provided:
//
//   - ECDSA over P-256 (the paper's prime256v1 curve) for live
//     deployments and correctness tests; and
//   - a fast HMAC-SHA256 scheme for large simulations, where thousands
//     of simulated signature operations per virtual second would make
//     real ECDSA the bottleneck of the *host*. The simulator still
//     charges ECDSA-calibrated virtual time per operation, so measured
//     (virtual) performance is identical; see DESIGN.md §2.
package crypto

import (
	"errors"
	"sync/atomic"
	"time"

	"achilles/internal/types"
)

// Scheme creates keys and signs/verifies digests.
type Scheme interface {
	// Name identifies the scheme ("ecdsa-p256" or "hmac-fast").
	Name() string
	// KeyPair deterministically derives a key pair for a node from a
	// seed; the same (seed, id) always yields the same pair.
	KeyPair(seed int64, id types.NodeID) (PrivateKey, PublicKey)
	// Sign signs msg with the private key.
	Sign(priv PrivateKey, msg []byte) types.Signature
	// Verify reports whether sig is a valid signature of msg under pub.
	Verify(pub PublicKey, msg []byte, sig types.Signature) bool
	// MarshalPublic serializes a public key so it can ride inside a
	// Reconfig command and a membership config hash.
	MarshalPublic(pub PublicKey) []byte
	// UnmarshalPublic reverses MarshalPublic.
	UnmarshalPublic(data []byte) (PublicKey, error)
}

// PrivateKey is an opaque signing key. In the real system it never
// leaves the TEE; in this codebase only trusted components hold one.
type PrivateKey interface{ privateKey() }

// PublicKey is an opaque verification key.
type PublicKey interface{ publicKey() }

// ErrUnknownSigner is returned when a certificate names a node the
// keyring does not know.
var ErrUnknownSigner = errors.New("crypto: unknown signer")

// KeyRing maps node identities to their public keys. It corresponds to
// the PKI assumed in Sec. 3.1; the ring is distributed to every node
// (and sealed to disk for recovery, Sec. 4.5).
type KeyRing struct {
	keys map[types.NodeID]PublicKey
}

// NewKeyRing returns an empty key ring.
func NewKeyRing() *KeyRing { return &KeyRing{keys: make(map[types.NodeID]PublicKey)} }

// Add registers a node's public key.
func (r *KeyRing) Add(id types.NodeID, pk PublicKey) { r.keys[id] = pk }

// Get returns the public key for id, or nil if unknown.
func (r *KeyRing) Get(id types.NodeID) PublicKey { return r.keys[id] }

// Len returns the number of registered keys.
func (r *KeyRing) Len() int { return len(r.keys) }

// Remove drops a node's key (membership eviction): the node's future
// signatures — and only its future signatures — stop verifying against
// this ring.
func (r *KeyRing) Remove(id types.NodeID) { delete(r.keys, id) }

// IDs returns the registered node identities in ascending order.
func (r *KeyRing) IDs() []types.NodeID {
	out := make([]types.NodeID, 0, len(r.keys))
	for id := range r.keys {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Clone returns an independent copy of the ring. Epoch transitions
// build the next epoch's ring by cloning the current one and applying
// the committed membership change, never by mutating a ring other
// components still read (the harness shares one boot ring across all
// simulated nodes).
func (r *KeyRing) Clone() *KeyRing {
	c := NewKeyRing()
	for id, pk := range r.keys {
		c.keys[id] = pk
	}
	return c
}

// Costs models the CPU time of signature operations, charged to the
// runtime clock by Service. Defaults are calibrated to ECDSA P-256 on
// the paper's 8-vCPU instances.
type Costs struct {
	Sign   time.Duration
	Verify time.Duration
}

// DefaultCosts returns signature costs calibrated to ECDSA P-256.
func DefaultCosts() Costs {
	return Costs{Sign: 30 * time.Microsecond, Verify: 75 * time.Microsecond}
}

// Service binds a scheme, a key ring, a node's private key and a meter
// together. All protocol and trusted-component code signs and verifies
// through a Service so modelled costs accrue automatically.
type Service struct {
	scheme Scheme
	// ring and priv are swapped atomically on epoch transitions (Rekey,
	// RekeyPriv), so a Service stays safe to share across goroutines.
	ring  atomic.Pointer[KeyRing]
	priv  atomic.Pointer[PrivateKey]
	self  types.NodeID
	meter types.Meter
	costs Costs
}

// NewService returns a metered signing service for node self.
func NewService(scheme Scheme, ring *KeyRing, priv PrivateKey, self types.NodeID, meter types.Meter, costs Costs) *Service {
	if meter == nil {
		meter = types.NopMeter{}
	}
	s := &Service{scheme: scheme, self: self, meter: meter, costs: costs}
	s.ring.Store(ring)
	s.priv.Store(&priv)
	return s
}

// Rekey swaps the service's key ring for the next epoch's.
func (s *Service) Rekey(ring *KeyRing) { s.ring.Store(ring) }

// RekeyPriv swaps the node's own signing key; an epoch that rotates
// this node's ring key installs the matching private half with it.
func (s *Service) RekeyPriv(priv PrivateKey) { s.priv.Store(&priv) }

// Self returns the node identity the service signs for.
func (s *Service) Self() types.NodeID { return s.self }

// Ring returns the service's key ring (the current epoch's).
func (s *Service) Ring() *KeyRing { return s.ring.Load() }

// Sign signs msg with the node's private key, charging the modelled
// signing cost.
func (s *Service) Sign(msg []byte) types.Signature {
	s.meter.Charge(s.costs.Sign)
	return s.scheme.Sign(*s.priv.Load(), msg)
}

// Verify checks a signature attributed to node id, charging the
// modelled verification cost.
func (s *Service) Verify(id types.NodeID, msg []byte, sig types.Signature) bool {
	s.meter.Charge(s.costs.Verify)
	pk := s.ring.Load().Get(id)
	if pk == nil {
		return false
	}
	return s.scheme.Verify(pk, msg, sig)
}

// VerifyQuorum checks a list of signatures over per-signer payloads, as
// needed for commitment certificates ⟨DECIDE, h, v⟩σ⃗. It requires all
// signers to be distinct and every signature to verify; the caller
// checks quorum size. Cost is linear in the number of signatures, which
// is what makes certificate verification O(f) in the latency model.
func (s *Service) VerifyQuorum(signers []types.NodeID, msg []byte, sigs []types.Signature) bool {
	if len(signers) != len(sigs) || len(signers) == 0 || !DistinctIDs(signers) {
		return false
	}
	for i, id := range signers {
		if !s.Verify(id, msg, sigs[i]) {
			return false
		}
	}
	return true
}

// VerifyQuorumBatch is VerifyQuorum; the ignored fan-out hook is kept
// only so benchmark/layers.go, which calls it, builds unchanged.
func (s *Service) VerifyQuorumBatch(signers []types.NodeID, msg []byte, sigs []types.Signature, _ func(tasks []func())) bool {
	return s.VerifyQuorum(signers, msg, sigs)
}

// DistinctIDs reports whether ids contains no duplicates.
func DistinctIDs(ids []types.NodeID) bool {
	seen := make(map[types.NodeID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}
