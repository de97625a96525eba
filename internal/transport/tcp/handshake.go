package tcp

import (
	"fmt"
	"net"
	"time"

	"repro/internal/auth"
	"repro/internal/transport"
)

// handshakeTimeout bounds the whole connection handshake.
const handshakeTimeout = 3 * time.Second

// serverHandshake authenticates one accepted connection. With a cluster key
// configured, the dialer must open with a hello and prove possession of both
// the cluster secret and its identity key before a single mux frame is
// exchanged; anything else is rejected with a kindHsReject and counted.
// Without a cluster key the first frame is inspected: a hello from an
// auth-expecting dialer is rejected loudly (so a misconfigured cluster fails
// with a typed error, not a hang) and any other frame is handed back, already
// decoded, for the serve loop to process before it reads more.
func (t *Transport) serverHandshake(conn net.Conn) (first *wireMsg, err error) {
	reject := func(reason string) (*wireMsg, error) {
		t.handshakeRejects.Add(1)
		_ = writeMsg(conn, wireMsg{Kind: kindHsReject, Err: reason})
		return nil, fmt.Errorf("%w: %s", transport.ErrUnauthenticated, reason)
	}
	keyed := len(t.cfg.ClusterKey) > 0
	if keyed {
		_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
		defer conn.SetDeadline(time.Time{})
	}
	m, err := readMsg(conn)
	if err != nil {
		return nil, err
	}
	if !keyed {
		if m.Kind == kindHsHello {
			return reject("tcp: peer requires authentication but this process has no cluster key")
		}
		return &m, nil
	}
	if m.Kind != kindHsHello {
		return reject("tcp: connection is not authenticated (no handshake hello)")
	}
	hello, ok := hsBody(m)
	if !ok {
		return reject("tcp: malformed handshake hello")
	}
	sNonce, err := auth.NewNonce()
	if err != nil {
		return nil, err
	}
	tr := auth.HandshakeTranscript(hello.Nonce, sNonce, hello.PubKey, t.cfg.Identity.Public())
	srvProof := hsPayload{
		PubKey: t.cfg.Identity.Public(),
		Nonce:  sNonce,
		MAC:    auth.HandshakeMAC(t.cfg.ClusterKey, "srv", tr),
		Sig:    t.cfg.Identity.SignTranscript("srv", tr),
	}
	if err := writeHs(conn, kindHsProof, srvProof); err != nil {
		return nil, err
	}
	m, err = readMsg(conn)
	if err != nil {
		// The dialer opened with a hello, saw this server's proof, and walked
		// away instead of answering: its check of our cluster-key MAC failed
		// (a wrong-key dialer refuses the server first). That is an
		// authentication failure of this connection, not network noise, so it
		// counts as a handshake reject on this side too.
		t.handshakeRejects.Add(1)
		return nil, fmt.Errorf("%w: tcp: dialer abandoned the handshake (%v)", transport.ErrUnauthenticated, err)
	}
	proof, ok := hsBody(m)
	if m.Kind != kindHsProof || !ok {
		return reject("tcp: malformed handshake proof")
	}
	if !auth.CheckHandshakeMAC(t.cfg.ClusterKey, "cli", tr, proof.MAC) {
		return reject("tcp: cluster key mismatch")
	}
	if !auth.CheckTranscriptSig(hello.PubKey, "cli", tr, proof.Sig) {
		return reject("tcp: identity proof failed")
	}
	return nil, writeMsg(conn, wireMsg{Kind: kindHsOK})
}

// clientHandshake authenticates one dialed connection before the mux loops
// start. Failures carry the transport.ErrUnauthenticated identity so callers
// can tell a policy refusal from a fail-stopped peer.
func (t *Transport) clientHandshake(conn net.Conn) error {
	if len(t.cfg.ClusterKey) == 0 {
		return nil
	}
	unauthed := func(why string) error {
		return fmt.Errorf("%w: %s", transport.ErrUnauthenticated, why)
	}
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	dNonce, err := auth.NewNonce()
	if err != nil {
		return err
	}
	hello := hsPayload{PubKey: t.cfg.Identity.Public(), Nonce: dNonce}
	if err := writeHs(conn, kindHsHello, hello); err != nil {
		return err
	}
	m, err := readMsg(conn)
	if err != nil {
		// An auth-disabled peer running an older loop just hangs up on the
		// unknown frame kind; surface that as the policy failure it is.
		return unauthed(fmt.Sprintf("tcp: connection closed during handshake (%v)", err))
	}
	if m.Kind == kindHsReject {
		return unauthed(m.Err)
	}
	srvProof, ok := hsBody(m)
	if m.Kind != kindHsProof || !ok {
		return unauthed("tcp: malformed server handshake proof")
	}
	tr := auth.HandshakeTranscript(dNonce, srvProof.Nonce, hello.PubKey, srvProof.PubKey)
	if !auth.CheckHandshakeMAC(t.cfg.ClusterKey, "srv", tr, srvProof.MAC) {
		return unauthed("tcp: cluster key mismatch")
	}
	if !auth.CheckTranscriptSig(srvProof.PubKey, "srv", tr, srvProof.Sig) {
		return unauthed("tcp: server identity proof failed")
	}
	proof := hsPayload{
		MAC: auth.HandshakeMAC(t.cfg.ClusterKey, "cli", tr),
		Sig: t.cfg.Identity.SignTranscript("cli", tr),
	}
	if err := writeHs(conn, kindHsProof, proof); err != nil {
		return err
	}
	m, err = readMsg(conn)
	if err != nil {
		return unauthed(fmt.Sprintf("tcp: connection closed awaiting handshake verdict (%v)", err))
	}
	switch m.Kind {
	case kindHsOK:
		return nil
	case kindHsReject:
		return unauthed(m.Err)
	default:
		return unauthed("tcp: unexpected handshake verdict frame")
	}
}
