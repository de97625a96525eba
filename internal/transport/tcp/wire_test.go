package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// goldenFrame is one frame with fixed field values: msg through appendFrame,
// or — when body is set — body through writeHs as a frame of msg.Kind.
type goldenFrame struct {
	name string
	msg  wireMsg
	body *hsPayload
	got  []byte
}

// goldenFrames is encoded in init. The binary codec writes no type
// descriptors and no state carries over from one frame to the next, so each
// frame's bytes depend on its fields alone. testdata/frames.golden was
// regenerated when that codec replaced gob and again when commit frames
// gained their TTL (the wire-version note in ARCHITECTURE.md "Wire API and
// ops contract"): equal bytes prove a change left the wire alone. A codec or
// header change must replace the file on purpose.
var goldenFrames = func() []goldenFrame {
	const from, sid = "127.0.0.1:7101", "a1b2c3d4e5f6-9"
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	pub, nonce := []byte{1, 2, 3}, []byte{4, 5, 6}
	return []goldenFrame{
		{name: "call", msg: wireMsg{Kind: kindCall, ID: 7, From: from, Method: "ds.insert", Payload: payload}},
		{name: "send", msg: wireMsg{Kind: kindSend, From: from, Method: "gossip.push", Payload: payload}},
		{name: "resp", msg: wireMsg{Kind: kindResp, ID: 7, Payload: payload}},
		{name: "resp-err", msg: wireMsg{Kind: kindResp, ID: 7, Err: "datastore: stale epoch"}},
		{name: "resp-chunked", msg: wireMsg{Kind: kindResp, ID: 7, Seq: 3}},
		{name: "resp-fail", msg: wireMsg{Kind: kindResp, ID: 3, Err: "tcp: chunk after commit", Fail: true}},
		{name: "ping", msg: wireMsg{Kind: kindPing, ID: 9}},
		{name: "pong", msg: wireMsg{Kind: kindPong, ID: 9}},
		{name: "chunk", msg: wireMsg{Kind: kindChunk, ID: 3, Seq: 2, From: from, Method: "rep.push", Payload: payload, SID: sid}},
		{name: "commit", msg: wireMsg{Kind: kindCommit, ID: 3, Seq: 3, From: from, Method: "rep.push", SID: sid, TTL: 250 * time.Millisecond}},
		{name: "abort", msg: wireMsg{Kind: kindAbort, ID: 3, From: from, Err: "context deadline exceeded", SID: sid}},
		{name: "resp-chunk", msg: wireMsg{Kind: kindRespChunk, ID: 7, Seq: 1, Payload: payload}},
		{name: "stream-resume", msg: wireMsg{Kind: kindStreamResume, ID: 4, From: from, Method: "rep.push", SID: sid}},
		{name: "resume-mark", msg: wireMsg{Kind: kindResumeMark, ID: 4, Seq: 2}},
		{name: "hs-hello", msg: wireMsg{Kind: kindHsHello}, body: &hsPayload{PubKey: pub, Nonce: nonce}},
		{name: "hs-proof", msg: wireMsg{Kind: kindHsProof}, body: &hsPayload{PubKey: pub, Nonce: nonce, MAC: []byte{7, 8}, Sig: []byte{9, 10}}},
		{name: "hs-ok", msg: wireMsg{Kind: kindHsOK}},
		{name: "hs-reject", msg: wireMsg{Kind: kindHsReject, Err: "tcp: cluster key mismatch"}},
	}
}()

func init() {
	for i := range goldenFrames {
		g := &goldenFrames[i]
		var buf bytes.Buffer
		var err error
		if g.body != nil {
			err = writeHs(&buf, g.msg.Kind, *g.body)
			g.got = buf.Bytes()
		} else {
			g.got, err = appendFrame(nil, g.msg)
		}
		if err != nil {
			panic(err)
		}
	}
}

// readOwned is readMsg for a test that keeps the message: its payload is
// copied out of the pooled read buffer, which goes back to the pool.
func readOwned(r io.Reader) (wireMsg, error) {
	m, err := readMsg(r)
	own := m
	own.Payload, own.buf = bytes.Clone(m.Payload), nil
	m.release()
	return own, err
}

func TestGoldenFrameBytes(t *testing.T) {
	f, err := os.Open("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, hexBytes, _ := strings.Cut(sc.Text(), " ")
		if want[name], err = hex.DecodeString(hexBytes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(want) != len(goldenFrames) {
		t.Fatalf("golden file holds %d frames, the table %d", len(want), len(goldenFrames))
	}
	for _, g := range goldenFrames {
		if !bytes.Equal(g.got, want[g.name]) {
			t.Errorf("%s: encoded\n%x\nwant\n%x", g.name, g.got, want[g.name])
		}
		m, err := readOwned(bytes.NewReader(want[g.name]))
		if err != nil {
			t.Errorf("%s: decoding the golden bytes: %v", g.name, err)
			continue
		}
		if g.body != nil {
			body, ok := hsBody(m)
			if !ok || !reflect.DeepEqual(body, *g.body) {
				t.Errorf("%s: handshake body decoded to %+v (ok=%v), want %+v", g.name, body, ok, *g.body)
			}
			m.Payload = nil
		}
		if !reflect.DeepEqual(m, g.msg) {
			t.Errorf("%s: decoded to %+v, want %+v", g.name, m, g.msg)
		}
	}
}

// The size limit is enforced where the frame is built: an oversized message
// is a typed error and leaves the buffer as it was.
func TestAppendFrameRefusesOversizedMessage(t *testing.T) {
	buf, err := appendFrame(nil, wireMsg{Kind: kindPing, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := len(buf)
	after, err := appendFrame(buf, wireMsg{Kind: kindCall, Method: "big", Payload: make([]byte, transport.MaxFrameSize)})
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if len(after) != before {
		t.Fatalf("buffer grew from %d to %d bytes on a refused frame", before, len(after))
	}
	if m, err := readMsg(bytes.NewReader(after)); err != nil || m.Kind != kindPing || m.ID != 1 {
		t.Fatalf("frame before the refused one reads back as %+v, %v", m, err)
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readMsg never panics on arbitrary bytes, and a length prefix claiming more
// than arrives costs no more than what arrived; a frame that is cut short or
// carries bytes past its header is refused; what does read back re-encodes
// to the same header.
func FuzzReadMsg(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add(g.got)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m wireMsg
		var err error
		if n := allocatedBy(func() { m, err = readOwned(bytes.NewReader(data)) }); n > 64*uint64(len(data))+16<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		frame := data[:transport.FrameHeaderLen+int(binary.BigEndian.Uint32(data))]
		if _, err := readMsg(bytes.NewReader(frame[:len(frame)-1])); err == nil {
			t.Fatal("a truncated frame read back")
		}
		long := append(append([]byte(nil), frame...), 0)
		transport.PutFrameHeader(long, len(long)-transport.FrameHeaderLen)
		if _, err := readMsg(bytes.NewReader(long)); err == nil {
			t.Fatal("a frame with a byte past its header read back")
		}
		buf, err := appendFrame(nil, m)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", m, err)
		}
		if again, err := readOwned(bytes.NewReader(buf)); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("%+v re-encoded and read back as %+v, %v", m, again, err)
		}
	})
}
