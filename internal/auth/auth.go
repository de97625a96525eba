// Package auth provides the cryptographic identity layer: per-peer ed25519
// keypairs, signatures over range advertisements, and the primitives the TCP
// transport's connection handshake is built from.
//
// The trust model is deliberately small (see ARCHITECTURE.md, "Trust
// boundary"). A shared cluster secret gates membership: the connection
// handshake proves both ends hold it, so a process without the secret cannot
// exchange a single RPC with the cluster. Ed25519 keypairs give each peer a
// stable identity: range adverts are signed over (owner, range, epoch), and
// receivers pin the first key seen for an owner address
// (trust-on-first-use), so a peer that *is* in the cluster still cannot
// forge a higher-epoch advert in another owner's name and depose it.
package auth

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// ErrBadSignature reports an advert whose signature is missing, invalid, or
// made with a key that does not match the one pinned for its claimed owner.
// Registered as a wire error so receivers can reject signed pushes with a
// typed error the sender recovers with errors.Is across TCP.
var ErrBadSignature = errors.New("auth: bad advert signature")

func init() {
	transport.RegisterWireError(ErrBadSignature)
}

// identityFile is the name of the persisted key seed under a peer's data
// directory. The 32-byte ed25519 seed is stored raw, mode 0600.
const identityFile = "identity.ed25519"

// Identity is one peer's ed25519 keypair. The zero value is unusable; create
// with NewIdentity (ephemeral) or LoadOrCreate (persisted in a data dir).
type Identity struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity generates a fresh ephemeral keypair.
func NewIdentity() (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("auth: generate identity: %w", err)
	}
	return &Identity{pub: pub, priv: priv}, nil
}

// LoadOrCreate returns the identity persisted under dir, generating and
// persisting one on first use. A peer restarted with the same -data-dir keeps
// its public key, so pins other peers hold for it stay valid across crashes.
func LoadOrCreate(dir string) (*Identity, error) {
	path := filepath.Join(dir, identityFile)
	seed, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(seed) != ed25519.SeedSize {
			return nil, fmt.Errorf("auth: %s: corrupt seed (%d bytes, want %d)", path, len(seed), ed25519.SeedSize)
		}
		priv := ed25519.NewKeyFromSeed(seed)
		return &Identity{pub: priv.Public().(ed25519.PublicKey), priv: priv}, nil
	case os.IsNotExist(err):
		id, err := NewIdentity()
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("auth: persist identity: %w", err)
		}
		if err := os.WriteFile(path, id.priv.Seed(), 0o600); err != nil {
			return nil, fmt.Errorf("auth: persist identity: %w", err)
		}
		return id, nil
	default:
		return nil, fmt.Errorf("auth: load identity: %w", err)
	}
}

// Public returns the identity's public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// Sign signs an arbitrary message with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// AdvertSig is the detached signature carried by a range advertisement:
// the signer's public key and its ed25519 signature over the canonical
// advert bytes. The zero value means "unsigned".
type AdvertSig struct {
	Key []byte
	Sig []byte
}

// Present reports whether the advert carries a signature at all.
func (s AdvertSig) Present() bool { return len(s.Sig) > 0 }

// advertBytes is the canonical byte string an advert signature covers:
// a domain label, the claimed owner address, the range bounds, and the
// epoch. Length-prefixing the owner keeps the encoding injective.
func advertBytes(owner string, lo, hi keyspace.Key, epoch uint64) []byte {
	buf := make([]byte, 0, 16+len(owner)+8+24)
	buf = append(buf, "pepper-advert1\x00"...)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(owner)))
	buf = append(buf, n[:]...)
	buf = append(buf, owner...)
	binary.BigEndian.PutUint64(n[:], uint64(lo))
	buf = append(buf, n[:]...)
	binary.BigEndian.PutUint64(n[:], uint64(hi))
	buf = append(buf, n[:]...)
	binary.BigEndian.PutUint64(n[:], epoch)
	buf = append(buf, n[:]...)
	return buf
}

// SignAdvert signs a range advertisement (owner, [lo, hi], epoch).
func (id *Identity) SignAdvert(owner string, lo, hi keyspace.Key, epoch uint64) AdvertSig {
	return AdvertSig{
		Key: append([]byte(nil), id.pub...),
		Sig: id.Sign(advertBytes(owner, lo, hi, epoch)),
	}
}

// Keyring verifies advert signatures and pins owner→key bindings on first
// use. Safe for concurrent use.
//
// An owner signs (owner, range, epoch) once per incarnation and repeats the
// same advert on every replica push until its next epoch bump, so the keyring
// remembers, per owner, the last advert that passed both the signature and
// the pin check, and answers a byte-for-byte repeat of it without the curve
// arithmetic. Its verdict is the one a fresh check would give: the signature
// check is a pure function of the six parts compared, and a pin never changes
// once set, so an entry never goes stale. A future pin rotation must delete
// the owner's entry along with its pin. Rejections are never remembered, and
// the memo holds at most one entry per pinned owner.
type Keyring struct {
	mu       sync.Mutex
	pins     map[string][]byte
	verified map[string]verifiedAdvert
	rejects  uint64

	curveChecks atomic.Uint64 // ed25519.Verify calls, for the memo's test
}

// verifiedAdvert is one owner's last advert that passed both checks.
type verifiedAdvert struct {
	lo, hi   keyspace.Key
	epoch    uint64
	key, sig []byte
}

func (v verifiedAdvert) repeats(lo, hi keyspace.Key, epoch uint64, sig AdvertSig) bool {
	return v.lo == lo && v.hi == hi && v.epoch == epoch &&
		bytes.Equal(v.key, sig.Key) && bytes.Equal(v.sig, sig.Sig)
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{pins: make(map[string][]byte), verified: make(map[string]verifiedAdvert)}
}

// VerifyAdvert checks sig over (owner, [lo, hi], epoch). A valid signature
// from a previously unseen owner pins that owner to the signing key; a valid
// signature under a DIFFERENT key than the pinned one is rejected — that is
// the forged-advert case: a cluster member signing a claim in another
// owner's name. Returns nil on success, ErrBadSignature (wrapped with
// detail) otherwise. An exact repeat of the owner's last accepted advert is
// accepted without re-running the signature check (see Keyring).
func (k *Keyring) VerifyAdvert(owner string, lo, hi keyspace.Key, epoch uint64, sig AdvertSig) error {
	fail := func(why string) error {
		k.mu.Lock()
		k.rejects++
		k.mu.Unlock()
		return fmt.Errorf("%w: %s (owner %s epoch %d)", ErrBadSignature, why, owner, epoch)
	}
	if !sig.Present() {
		return fail("unsigned advert")
	}
	if len(sig.Key) != ed25519.PublicKeySize {
		return fail("malformed public key")
	}
	k.mu.Lock()
	last, ok := k.verified[owner]
	k.mu.Unlock()
	if ok && last.repeats(lo, hi, epoch, sig) {
		return nil
	}
	k.curveChecks.Add(1)
	if !ed25519.Verify(ed25519.PublicKey(sig.Key), advertBytes(owner, lo, hi, epoch), sig.Sig) {
		return fail("signature does not verify")
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if pinned, ok := k.pins[owner]; ok {
		if !bytes.Equal(pinned, sig.Key) {
			k.rejects++
			return fmt.Errorf("%w: key does not match the one pinned for owner %s (epoch %d)", ErrBadSignature, owner, epoch)
		}
	} else {
		k.pins[owner] = append([]byte(nil), sig.Key...)
	}
	k.verified[owner] = verifiedAdvert{lo: lo, hi: hi, epoch: epoch,
		key: append([]byte(nil), sig.Key...), sig: append([]byte(nil), sig.Sig...)}
	return nil
}

// Pin records an owner→key binding directly (a peer pins its own identity so
// nobody else can claim its address first).
func (k *Keyring) Pin(owner string, key []byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.pins[owner]; !ok {
		k.pins[owner] = append([]byte(nil), key...)
	}
}

// Rejects returns the number of adverts this keyring has rejected.
func (k *Keyring) Rejects() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rejects
}

// LoadClusterKey reads the shared cluster secret from a file. Surrounding
// whitespace is trimmed so shell-generated key files (trailing newline) work;
// the remaining bytes are the secret verbatim.
func LoadClusterKey(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth: cluster key: %w", err)
	}
	key := []byte(strings.TrimSpace(string(b)))
	if len(key) == 0 {
		return nil, fmt.Errorf("auth: cluster key %s is empty", path)
	}
	return key, nil
}

// Handshake primitives. The TCP transport runs a two-round-trip mutual
// challenge–response on every new connection: each side contributes a fresh
// nonce and its public key, and each side proves (a) possession of the
// shared cluster secret with an HMAC over the transcript and (b) possession
// of its identity's private key with an ed25519 signature over the same
// transcript, role-labelled so a proof cannot be reflected back.

// NonceSize is the size of each side's handshake nonce.
const NonceSize = 32

// NewNonce returns a fresh random handshake nonce.
func NewNonce() ([]byte, error) {
	n := make([]byte, NonceSize)
	if _, err := rand.Read(n); err != nil {
		return nil, fmt.Errorf("auth: nonce: %w", err)
	}
	return n, nil
}

// HandshakeTranscript binds both nonces and both public keys into the byte
// string all handshake proofs cover.
func HandshakeTranscript(dialerNonce, serverNonce, dialerPub, serverPub []byte) []byte {
	buf := make([]byte, 0, 16+len(dialerNonce)+len(serverNonce)+len(dialerPub)+len(serverPub))
	buf = append(buf, "pepper-hs1\x00"...)
	buf = append(buf, dialerNonce...)
	buf = append(buf, serverNonce...)
	buf = append(buf, dialerPub...)
	buf = append(buf, serverPub...)
	return buf
}

// HandshakeMAC proves possession of the cluster secret over a transcript,
// labelled by role ("cli" or "srv") so the two directions are distinct.
func HandshakeMAC(clusterKey []byte, role string, transcript []byte) []byte {
	m := hmac.New(sha256.New, clusterKey)
	m.Write([]byte(role))
	m.Write([]byte{0})
	m.Write(transcript)
	return m.Sum(nil)
}

// CheckHandshakeMAC verifies a role-labelled transcript MAC in constant
// time.
func CheckHandshakeMAC(clusterKey []byte, role string, transcript, mac []byte) bool {
	return hmac.Equal(HandshakeMAC(clusterKey, role, transcript), mac)
}

// SignTranscript proves possession of the identity key over a transcript,
// role-labelled like the MAC.
func (id *Identity) SignTranscript(role string, transcript []byte) []byte {
	return id.Sign(append([]byte(role+"\x00"), transcript...))
}

// CheckTranscriptSig verifies a role-labelled transcript signature.
func CheckTranscriptSig(pub []byte, role string, transcript, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), append([]byte(role+"\x00"), transcript...), sig)
}
