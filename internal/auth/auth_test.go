package auth

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/keyspace"
)

func TestSignVerifyAdvert(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	kr := NewKeyring()
	sig := id.SignAdvert("peer-1", 100, 200, 7)
	if err := kr.VerifyAdvert("peer-1", 100, 200, 7, sig); err != nil {
		t.Fatalf("valid advert rejected: %v", err)
	}
	// Any field change invalidates the signature.
	if err := kr.VerifyAdvert("peer-1", 100, 200, 8, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered epoch accepted: %v", err)
	}
	if err := kr.VerifyAdvert("peer-1", 100, 201, 7, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered range accepted: %v", err)
	}
	if err := kr.VerifyAdvert("peer-2", 100, 200, 7, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered owner accepted: %v", err)
	}
	if err := kr.VerifyAdvert("peer-1", 100, 200, 7, AdvertSig{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("unsigned advert accepted: %v", err)
	}
	if kr.Rejects() != 4 {
		t.Fatalf("rejects = %d, want 4", kr.Rejects())
	}
}

func TestKeyringPinsFirstKey(t *testing.T) {
	honest, _ := NewIdentity()
	forger, _ := NewIdentity()
	kr := NewKeyring()
	if err := kr.VerifyAdvert("victim", 0, 500, 3, honest.SignAdvert("victim", 0, 500, 3)); err != nil {
		t.Fatal(err)
	}
	// A correctly-signed advert in the victim's name under a different key —
	// the forged higher-epoch advert — must be rejected.
	err := kr.VerifyAdvert("victim", 0, 500, 99, forger.SignAdvert("victim", 0, 500, 99))
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged advert accepted: %v", err)
	}
	// The honest owner keeps working.
	if err := kr.VerifyAdvert("victim", 0, 500, 4, honest.SignAdvert("victim", 0, 500, 4)); err != nil {
		t.Fatalf("honest advert rejected after forgery attempt: %v", err)
	}
}

// The memo answers only an exact repeat of an accepted advert: every other
// input is refused with the same error, and counted as the same rejection, as
// on a keyring that holds the same pin but has remembered nothing.
func TestVerifyAdvertMemoKeepsEveryVerdict(t *testing.T) {
	honest, _ := NewIdentity()
	forger, _ := NewIdentity()
	good := honest.SignAdvert("peer-1", 100, 200, 7)
	flipped := AdvertSig{Key: good.Key, Sig: append([]byte(nil), good.Sig...)}
	flipped.Sig[5] ^= 0x10

	kr := NewKeyring()
	if err := kr.VerifyAdvert("peer-1", 100, 200, 7, good); err != nil {
		t.Fatalf("genuine advert rejected: %v", err)
	}
	cases := []struct {
		name   string
		owner  string
		lo, hi keyspace.Key
		epoch  uint64
		sig    AdvertSig
	}{
		{"tampered epoch", "peer-1", 100, 200, 8, good},
		{"tampered range", "peer-1", 100, 201, 7, good},
		{"another owner", "peer-2", 100, 200, 7, good},
		{"flipped signature bit", "peer-1", 100, 200, 7, flipped},
		{"second identity for the owner", "peer-1", 100, 200, 7, forger.SignAdvert("peer-1", 100, 200, 7)},
		{"unsigned", "peer-1", 100, 200, 7, AdvertSig{}},
	}
	for _, c := range cases {
		cold := NewKeyring()
		cold.Pin("peer-1", honest.Public())
		coldErr := cold.VerifyAdvert(c.owner, c.lo, c.hi, c.epoch, c.sig)
		before := kr.Rejects()
		err := kr.VerifyAdvert(c.owner, c.lo, c.hi, c.epoch, c.sig)
		if !errors.Is(err, ErrBadSignature) || !errors.Is(coldErr, ErrBadSignature) {
			t.Fatalf("%s: warm verdict %v, cold verdict %v, want both ErrBadSignature", c.name, err, coldErr)
		}
		if err.Error() != coldErr.Error() {
			t.Fatalf("%s: warm error %q differs from cold error %q", c.name, err, coldErr)
		}
		if got := kr.Rejects() - before; got != 1 || cold.Rejects() != 1 {
			t.Fatalf("%s: rejects advanced by %d (cold %d), want 1", c.name, got, cold.Rejects())
		}
	}
	checks := kr.curveChecks.Load()
	if err := kr.VerifyAdvert("peer-1", 100, 200, 7, good); err != nil {
		t.Fatalf("genuine advert rejected after the refusals: %v", err)
	}
	if got := kr.curveChecks.Load() - checks; got != 0 {
		t.Fatalf("repeat of the accepted advert ran %d curve checks, want 0", got)
	}
	t.Run("concurrent", testVerifyAdvertMemoConcurrent)
}

// Goroutines that repeat one advert, move an owner to a new epoch and present
// forgeries all at once each get the verdict a lone caller would.
func testVerifyAdvertMemoConcurrent(t *testing.T) {
	owners := make([]*Identity, 3)
	for i := range owners {
		owners[i], _ = NewIdentity()
	}
	forger, _ := NewIdentity()
	name := func(i int) string { return fmt.Sprintf("peer-%d", i) }
	kr := NewKeyring()
	for i, id := range owners {
		kr.Pin(name(i), id.Public())
	}
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(owners)
				epoch := uint64(1 + r%2) // two incarnations per owner alternate in the memo
				if w%2 == 0 {
					epoch = 1 // half the workers repeat one advert
				}
				if err := kr.VerifyAdvert(name(i), 0, 10, epoch, owners[i].SignAdvert(name(i), 0, 10, epoch)); err != nil {
					errs <- fmt.Errorf("worker %d: genuine advert of %s at epoch %d rejected: %v", w, name(i), epoch, err)
					return
				}
				if r%5 == 0 {
					if err := kr.VerifyAdvert(name(i), 0, 10, epoch, forger.SignAdvert(name(i), 0, 10, epoch)); !errors.Is(err, ErrBadSignature) {
						errs <- fmt.Errorf("worker %d: forged advert of %s accepted: %v", w, name(i), err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := kr.Rejects(), uint64(workers*rounds/5); got != want {
		t.Fatalf("rejects = %d, want %d", got, want)
	}
}

// BenchmarkVerifyAdvert keeps the curve's cost measurable beside the memo's:
// cold verifies on a fresh keyring every time, repeat re-presents the advert
// a keyring has already accepted.
func BenchmarkVerifyAdvert(b *testing.B) {
	id, _ := NewIdentity()
	sig := id.SignAdvert("peer", 1, 2, 3)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := NewKeyring().VerifyAdvert("peer", 1, 2, 3, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repeat", func(b *testing.B) {
		kr := NewKeyring()
		for i := 0; i < b.N; i++ {
			if err := kr.VerifyAdvert("peer", 1, 2, 3, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestLoadOrCreatePersists(t *testing.T) {
	dir := t.TempDir()
	a, err := LoadOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Public()) != string(b.Public()) {
		t.Fatal("reloaded identity has a different public key")
	}
	info, err := os.Stat(filepath.Join(dir, identityFile))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("identity file mode = %v, want 0600", info.Mode().Perm())
	}
}

func TestHandshakePrimitives(t *testing.T) {
	cli, _ := NewIdentity()
	srv, _ := NewIdentity()
	dn, _ := NewNonce()
	sn, _ := NewNonce()
	key := []byte("cluster-secret")
	tr := HandshakeTranscript(dn, sn, cli.Public(), srv.Public())

	mac := HandshakeMAC(key, "srv", tr)
	if !CheckHandshakeMAC(key, "srv", tr, mac) {
		t.Fatal("valid MAC rejected")
	}
	if CheckHandshakeMAC([]byte("wrong"), "srv", tr, mac) {
		t.Fatal("MAC verified under the wrong cluster key")
	}
	if CheckHandshakeMAC(key, "cli", tr, mac) {
		t.Fatal("MAC verified under the wrong role label (reflection)")
	}

	sig := srv.SignTranscript("srv", tr)
	if !CheckTranscriptSig(srv.Public(), "srv", tr, sig) {
		t.Fatal("valid transcript signature rejected")
	}
	if CheckTranscriptSig(srv.Public(), "cli", tr, sig) {
		t.Fatal("transcript signature verified under the wrong role (reflection)")
	}
	if CheckTranscriptSig(cli.Public(), "srv", tr, sig) {
		t.Fatal("transcript signature verified under the wrong key")
	}
}

func TestLoadClusterKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.key")
	if err := os.WriteFile(path, []byte("  s3cret\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := LoadClusterKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(key) != "s3cret" {
		t.Fatalf("key = %q, want trimmed %q", key, "s3cret")
	}
	if err := os.WriteFile(path, []byte("\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterKey(path); err == nil {
		t.Fatal("empty key file accepted")
	}
}
