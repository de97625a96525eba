package transport_test

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/transport"

	// Importing the protocol packages runs their wire-type registrations,
	// so RegisteredMessages covers every payload/response in the system.
	_ "repro/internal/core"
	_ "repro/internal/datastore"
	_ "repro/internal/gossip"
	_ "repro/internal/replication"
	_ "repro/internal/ring"
	_ "repro/internal/router"
)

// Every registered message type must survive an encode/decode round trip
// with its concrete type and value intact — the contract the TCP transport
// and simnet's StrictSerialization mode rely on.
func TestRegistryRoundTripsEveryMessageType(t *testing.T) {
	msgs := transport.RegisteredMessages()
	if len(msgs) < 25 {
		t.Fatalf("only %d registered message types; expected the full protocol surface (ring, datastore, replication, router, core)", len(msgs))
	}
	for _, sample := range msgs {
		got, err := transport.RoundTrip(sample)
		if err != nil {
			t.Errorf("%T: round trip failed: %v", sample, err)
			continue
		}
		if reflect.TypeOf(got) != reflect.TypeOf(sample) {
			t.Errorf("%T: decoded as %T", sample, got)
			continue
		}
		if !reflect.DeepEqual(got, sample) {
			t.Errorf("%T: decoded value %#v != original %#v", sample, got, sample)
		}
	}
	t.Logf("round-tripped %d registered message types", len(msgs))
}

func TestRoundTripNilPayload(t *testing.T) {
	got, err := transport.RoundTrip(nil)
	if err != nil {
		t.Fatalf("nil payload: %v", err)
	}
	if got != nil {
		t.Fatalf("nil payload decoded as %#v", got)
	}
}

func TestRoundTripIsDeepCopy(t *testing.T) {
	type unreg struct{ Xs []int }
	// A registered type holding a slice must come back as a distinct copy.
	transport.RegisterMessage(unreg{})
	orig := unreg{Xs: []int{1, 2, 3}}
	got, err := transport.RoundTrip(orig)
	if err != nil {
		t.Fatal(err)
	}
	copy := got.(unreg)
	copy.Xs[0] = 99
	if orig.Xs[0] != 1 {
		t.Fatal("decoded value shares backing storage with the original")
	}
}

func TestEncodeRejectsUnregisteredType(t *testing.T) {
	type neverRegistered struct{ A int }
	if _, err := transport.Encode(neverRegistered{A: 1}); err == nil {
		t.Fatal("encoding an unregistered type succeeded; the codec must reject it")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for _, p := range payloads {
		if err := transport.WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := transport.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A corrupt length prefix beyond MaxFrameSize must not allocate.
	buf := bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := transport.ReadFrame(buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestWireErrorRegistry(t *testing.T) {
	sentinel := errors.New("codectest: fenced off")
	other := errors.New("codectest: never registered")
	transport.RegisterWireError(sentinel)
	transport.RegisterWireError(sentinel) // duplicate registration is a no-op

	if !transport.MatchWireError("handler failed: codectest: fenced off (epoch 3)", sentinel) {
		t.Error("registered sentinel not matched in remote text")
	}
	if transport.MatchWireError("handler failed: codectest: fenced off", other) {
		t.Error("unregistered sentinel matched")
	}
	if transport.MatchWireError("some unrelated failure", sentinel) {
		t.Error("sentinel matched text that does not contain it")
	}
	if transport.MatchWireError("anything", nil) {
		t.Error("nil target matched")
	}
}

// gobRoundTrip is what the codec replaced: the payload in an interface field
// of a gob-encoded envelope. It is the reference for the codec's value
// semantics — nil and empty slices, maps and interfaces — which callers rely
// on.
func gobRoundTrip(v any) (any, error) {
	type envelope struct{ V any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope{V: v}); err != nil {
		return nil, err
	}
	var env envelope
	err := gob.NewDecoder(&buf).Decode(&env)
	return env.V, err
}

// randValue returns a seeded random value of type t that reaches the codec's
// edges: nil, empty and filled slices, maps and byte slices; nil and filled
// interfaces (holding any registered type, to depth levels); extreme
// integers.
func randValue(rng *rand.Rand, t reflect.Type, depth int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := t.Bits()
		lo, hi := int64(-1)<<(bits-1), int64(uint64(1)<<(bits-1)-1)
		v.SetInt([]int64{0, 1, -1, lo, hi, rng.Int63n(hi) - rng.Int63n(hi)}[rng.Intn(6)])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		hi := uint64(math.MaxUint64) >> (64 - t.Bits())
		v.SetUint([]uint64{0, 1, hi, rng.Uint64() & hi}[rng.Intn(4)])
	case reflect.String:
		b := make([]byte, []int{0, 1, 7, 40}[rng.Intn(4)])
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Slice:
		switch rng.Intn(3) {
		case 1:
			v.Set(reflect.MakeSlice(t, 0, 0))
		case 2:
			n := 1 + rng.Intn(4)
			v.Set(reflect.MakeSlice(t, n, n))
			for i := 0; i < n; i++ {
				v.Index(i).Set(randValue(rng, t.Elem(), depth))
			}
		}
	case reflect.Map:
		switch rng.Intn(3) {
		case 1:
			v.Set(reflect.MakeMap(t))
		case 2:
			v.Set(reflect.MakeMap(t))
			for i := 0; i < 1+rng.Intn(4); i++ {
				v.SetMapIndex(randValue(rng, t.Key(), depth), randValue(rng, t.Elem(), depth))
			}
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(randValue(rng, t.Field(i).Type, depth))
			}
		}
	case reflect.Interface:
		if msgs := transport.RegisteredMessages(); depth > 0 && rng.Intn(4) != 0 {
			et := reflect.TypeOf(msgs[rng.Intn(len(msgs))])
			if et.Implements(t) {
				v.Set(randValue(rng, et, depth-1))
			}
		}
	default:
		panic("randValue: unexpected kind " + t.Kind().String())
	}
	return v
}

// The codec keeps gob's value semantics on every registered type: each of
// many seeded random values decodes to exactly what gob's round trip gives.
func TestCodecMatchesGob(t *testing.T) {
	msgs := transport.RegisteredMessages()
	for _, sample := range msgs {
		gob.Register(sample)
	}
	rng := rand.New(rand.NewSource(1))
	const perType = 200
	for _, sample := range msgs {
		typ := reflect.TypeOf(sample)
		for i := 0; i < perType; i++ {
			v := randValue(rng, typ, 2).Interface()
			want, err := gobRoundTrip(v)
			if err != nil {
				t.Fatalf("%T: gob: %v", v, err)
			}
			got, err := transport.RoundTrip(v)
			if err != nil {
				t.Fatalf("%T: codec: %v\nvalue %#v", v, err, v)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: codec round trip\n%#v\ngob round trip\n%#v\nof\n%#v", v, got, want, v)
			}
		}
	}
	t.Logf("%d registered types x %d values matched gob", len(msgs), perType)
}

// A message type the codec cannot carry fails when it is registered, naming
// the field, not on its first send.
func TestRegisteringAnUncarriableFieldPanicsNamingIt(t *testing.T) {
	type inner struct {
		Hook func()
	}
	type withPointer struct {
		N    int
		Next *int
	}
	type withChan struct{ Done chan struct{} }
	type withNestedFunc struct{ Steps []inner }
	for _, tc := range []struct {
		sample any
		field  string
	}{
		{withPointer{}, "withPointer.Next"},
		{withChan{}, "withChan.Done"},
		{withNestedFunc{}, "withNestedFunc.Steps[].Hook"},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, tc.field) {
					t.Errorf("registering %T: panic %v, want one naming %s", tc.sample, r, tc.field)
				}
			}()
			transport.RegisterMessage(tc.sample)
		}()
		for _, m := range transport.RegisteredMessages() {
			if reflect.TypeOf(m) == reflect.TypeOf(tc.sample) {
				t.Errorf("%T was registered despite the panic", tc.sample)
			}
		}
	}
}

type aliasProbe struct {
	S     string
	B     []byte
	Words []string
}

// A decoded value owns its strings and slices: the TCP transport decodes
// out of pooled read buffers, so the bytes under a value are reused for the
// next frame the moment Decode returns.
func TestDecodedValuesDoNotAliasTheInput(t *testing.T) {
	transport.RegisterMessage(aliasProbe{})
	want := aliasProbe{S: "string", B: []byte("bytes"), Words: []string{"a", "slice"}}
	b, err := transport.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := transport.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xff
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the input was overwritten the decoded value reads %#v", got)
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	good, err := transport.Encode(transport.RegisteredMessages()[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"unknown type":   append([]byte{byte(len("nosuch.Type"))}, "nosuch.Type"...),
		"huge length":    {0xff, 0xff, 0xff, 0xff, 0x0f, 'x'},
	} {
		if v, err := transport.Decode(b); err == nil {
			t.Errorf("%s: decoded %#v", name, v)
		}
	}
}

// fuzzSeeds is the starting corpus: the encoding of every registered type's
// sample and of a few random values of each, and the golden TCP frames.
func fuzzSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, sample := range transport.RegisteredMessages() {
		for i := 0; i < 4; i++ {
			v := sample
			if i > 0 {
				v = randValue(rng, reflect.TypeOf(sample), 1).Interface()
			}
			b, err := transport.Encode(v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	golden, err := os.Open("tcp/testdata/frames.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer golden.Close()
	for sc := bufio.NewScanner(golden); sc.Scan(); {
		_, hexBytes, _ := strings.Cut(sc.Text(), " ")
		frame, err := hex.DecodeString(hexBytes)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[transport.FrameHeaderLen:])
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

// decodeAllowance is the most a decoder may allocate for an n-byte input:
// every claimed length is checked against the bytes left, so a decoded value
// costs a bounded multiple of its encoding, whatever the input claims.
func decodeAllowance(n int) uint64 { return 64*uint64(n) + 16<<10 }

// Decode never panics on arbitrary input, allocates in proportion to the
// input, and decodes nothing from a truncated input or one with bytes
// trailing; what does decode re-encodes to the same value.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		var err error
		if n := allocatedBy(func() { v, err = transport.Decode(data) }); n > decodeAllowance(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if _, err := transport.Decode(data[:len(data)-1]); err == nil {
			t.Fatal("a truncated input decoded")
		}
		if _, err := transport.Decode(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("an input with a trailing byte decoded")
		}
		b, err := transport.Encode(v)
		if err != nil {
			t.Fatalf("re-encoding %#v: %v", v, err)
		}
		again, err := transport.Decode(b)
		if err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("%#v re-encoded and decoded to %#v, %v", v, again, err)
		}
	})
}
