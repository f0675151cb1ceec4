package cache

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"aa/internal/core"
	"aa/internal/instio"
)

// HashKey keys the thread-hash mixer. The zero key selects the original
// unkeyed hash byte-for-byte (mix64(0) == 0, so zero-key seeds collapse
// to the unkeyed constants), which is what keeps ModeMemory fingerprints
// byte-compatible across this change. A non-zero key perturbs both lane
// seeds and both finalizer lanes, so an attacker who can engineer
// collisions against the published unkeyed constants learns nothing
// about a keyed deployment — the property the shared relay tier needs
// before fingerprints cross trust boundaries.
type HashKey [4]uint64

// IsZero reports whether k is the zero key (the unkeyed hash).
func (k HashKey) IsZero() bool { return k == HashKey{} }

// KeyFromString derives a HashKey from a shared secret (the relay
// config's -cache-key). The empty string maps to the zero key — "no
// secret configured" and "unkeyed hash" are deliberately the same state.
func KeyFromString(secret string) HashKey {
	if secret == "" {
		return HashKey{}
	}
	sum := sha256.Sum256([]byte(secret))
	var k HashKey
	for i := range k {
		k[i] = binary.LittleEndian.Uint64(sum[8*i:])
	}
	if k.IsZero() {
		// A non-empty secret must key the hash; a four-lane zero digest
		// is beyond astronomically unlikely, but the contract is cheap
		// to keep absolute.
		k[0] = 1
	}
	return k
}

// RandomKey draws a fresh per-process key from crypto/rand — the
// relay's key when no -cache-key was configured: the cache is then safe
// against engineered collisions but private to this process (two relays
// only share fingerprints when given the same -cache-key).
func RandomKey() HashKey {
	var b [32]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; a broken
		// entropy source is not something to limp past silently.
		panic("cache: crypto/rand failed: " + err.Error())
	}
	var k HashKey
	for i := range k {
		k[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if k.IsZero() {
		k[0] = 1
	}
	return k
}

// CanonicalizeKeyed normalizes an instance for fingerprinting, hashing
// each thread's stable binary encoding with the keyed mixer. The zero
// key is the unkeyed hash (ModeMemory); any other key yields a disjoint
// fingerprint space, marked with its own scheme version so keyed and
// unkeyed entries can never alias even if a key were chosen
// adversarially. It fails only when a thread's utility type has no
// stable instio encoding; such instances are simply uncacheable and the
// engine solves them directly.
func CanonicalizeKeyed(in *core.Instance, key HashKey) (*Canonical, error) {
	ks := getKeyScratch(in.N())
	mx := newMixer(&key)
	var buf []byte
	for i, f := range in.Threads {
		var err error
		buf, err = instio.AppendThreadBinary(buf[:0], f)
		if err != nil {
			keyScratchPool.Put(ks)
			return nil, fmt.Errorf("cache: thread %d: %w", i, err)
		}
		hi, lo := mx.hash128(buf)
		ks.keys[i] = threadKey{hi: hi, lo: lo, idx: int32(i)}
	}
	version := byte(fingerprintVersion)
	if !key.IsZero() {
		version = fingerprintVersionKeyed
	}
	return fromKeys(in.M, in.C, ks, version), nil
}

// CanonicalizeWire is the relay's canonical form, read off a /solve body
// without decoding it: instio.ScanInstance checks everything outside
// the thread elements as the node's decoder would, and each thread is
// identified by a keyed hash of its exact element bytes. Equal bytes
// under equal m and c decode to the same curve, so a hit is as safe as
// a decoded fingerprint's; two spellings of one curve ("500" and "5e2",
// other whitespace) hash apart and miss, never alias. Fingerprints carry
// their own scheme version, so they never meet the decoded forms'.
func CanonicalizeWire(body []byte, key HashKey) (*Canonical, error) {
	w, err := instio.ScanInstance(body)
	if err != nil {
		return nil, err
	}
	ks := getKeyScratch(len(w.Threads))
	mx := newMixer(&key)
	for i, th := range w.Threads {
		hi, lo := mx.hash128(th)
		ks.keys[i] = threadKey{hi: hi, lo: lo, idx: int32(i)}
	}
	return fromKeys(w.M, w.C, ks, fingerprintVersionWire), nil
}
