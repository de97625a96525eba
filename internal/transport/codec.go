package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
)

// The wire codec: a registry of every message type that crosses the
// transport boundary, and one binary encoding compiled per type by
// reflection.
//
// Every RPC payload and response type must be registered: NewMethod
// registers the types its method names, and a package lists with
// RegisterMessage only the types that travel inside an interface-typed
// field. Registering a type compiles its encoder and decoder once. A field
// the codec cannot carry — a pointer, chan, func, float, array — panics
// there, at init, naming the field, so a bad message type fails at startup
// rather than on its first send.
//
// The encoding carries no field names, numbers or type descriptors:
//
//   - a struct is its exported fields in declaration order;
//   - a bool is one byte; integers are varints (zig-zag for signed kinds);
//   - a string, a byte slice or any other slice is a varint length followed
//     by the bytes or elements;
//   - a map is a varint length+1 followed by key, value pairs; 0 is a nil map;
//   - an interface is the registered name of its dynamic type as a string
//     (empty for nil), followed by the value.
//
// An envelope — what Encode produces — is exactly one interface value, so the
// receiver recovers the payload's concrete type without knowing the method's
// schema; the codec is shared by every method of every layer. Type names are
// on the wire there and nowhere else.
//
// Decoding keeps gob's value semantics, which callers rely on: a zero-length
// slice decodes as nil (ring.ChainAddrs reads a nil chain as "no news"), a nil
// map stays nil and an empty map empty, a nil interface stays nil, and every
// decoded string and slice is a fresh copy that never aliases the input.
//
// Encoding is also how by-reference sharing is flushed out: a payload that
// round-trips through Encode/Decode is a deep copy, exactly what crossing a
// process boundary produces. simnet forces every message through this round
// trip so in-process tests catch unregistered payloads before they break the
// TCP transport.

// typeCodec is the compiled encoding of one type.
type typeCodec struct {
	typ  reflect.Type
	name string // the registered name, for types that travel in interfaces
	// min is the fewest bytes any value of the type encodes to: a decoder
	// never believes a length that the rest of its input could not fill, so
	// what it allocates is bounded by what it was given.
	min int
	enc func(b []byte, v reflect.Value) []byte
	dec func(d *decoder, v reflect.Value) // v is settable and zero
}

// registry maps registered types to their codecs both ways. It is replaced,
// never modified, so encoders and decoders read it without a lock.
type registry struct {
	byType map[reflect.Type]*typeCodec
	byName map[string]*typeCodec
}

var (
	regMu      sync.Mutex
	compiled   = map[reflect.Type]*typeCodec{} // every type compiled so far, nested ones included
	registered []any                           // sample values, in registration order
	reg        atomic.Pointer[registry]
)

func lookupType(t reflect.Type) *typeCodec {
	if r := reg.Load(); r != nil {
		return r.byType[t]
	}
	return nil
}

func lookupName(name []byte) *typeCodec {
	if r := reg.Load(); r != nil {
		return r.byName[string(name)]
	}
	return nil
}

// RegisterMessage registers the concrete type of sample with the wire codec
// under its Go name (e.g. "datastore.Item"). Call it from an init function
// once per payload/response type. Registering the same type twice is a
// no-op; registering two different types with the same name panics, and so
// does a type with a field the codec cannot carry.
func RegisterMessage(sample any) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("transport: cannot register a nil message")
	}
	name := t.String()
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	if old == nil {
		old = &registry{}
	}
	if prev := old.byName[name]; prev != nil {
		if prev.typ != t {
			panic(fmt.Sprintf("transport: registering duplicate types for %q", name))
		}
		return
	}
	c := compileLocked(t)
	c.name = name
	next := &registry{byType: map[reflect.Type]*typeCodec{t: c}, byName: map[string]*typeCodec{name: c}}
	maps.Copy(next.byType, old.byType)
	maps.Copy(next.byName, old.byName)
	reg.Store(next)
	registered = append(registered, sample)
}

// RegisteredMessages returns one sample value per registered message type,
// in registration order. Tests use it to round-trip every wire type.
func RegisteredMessages() []any {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]any, len(registered))
	copy(out, registered)
	return out
}

// Codec is the compiled encoding of one type that both ends of a connection
// know statically, so no type name travels with it: the TCP transport's
// frame header and handshake body.
type Codec[T any] struct{ c *typeCodec }

// NewCodec compiles T's encoding; it panics, naming the field, if T holds
// one the codec cannot carry. Call it from a package-level var.
func NewCodec[T any]() Codec[T] {
	regMu.Lock()
	defer regMu.Unlock()
	return Codec[T]{c: compileLocked(reflect.TypeFor[T]())}
}

// Append appends the encoding of v to b. It fails only for an interface
// field holding a type that is not registered.
func (c Codec[T]) Append(b []byte, v T) (out []byte, err error) {
	defer catch(&err)
	return c.c.enc(b, reflect.ValueOf(&v).Elem()), nil
}

// Decode decodes one value that must span all of data.
func (c Codec[T]) Decode(data []byte) (T, error) {
	return c.decode(data, false)
}

// DecodeAliasing is Decode, except that every byte-slice field of the result
// aliases data instead of copying it (strings are still copied). The caller
// must not reuse data while the result's byte slices are in use. It is for a
// header whose body the caller decodes in turn — the TCP transport's frame
// header, read into a pooled buffer — so a body is copied once, by the decode
// of its own envelope, and never on its way there.
func (c Codec[T]) DecodeAliasing(data []byte) (T, error) {
	return c.decode(data, true)
}

func (c Codec[T]) decode(data []byte, alias bool) (T, error) {
	var v T
	if err := c.c.decode(data, alias, reflect.ValueOf(&v).Elem()); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

var envelope = NewCodec[any]()

// encodeBufs recycles Encode's scratch space: the result is copied out at
// its exact size, so a payload costs one allocation however it grew.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// AppendEncode appends the Encode stream of v to b. A transport that frames
// the envelope into a buffer of its own encodes it into a recycled one with
// this, and so allocates nothing for it.
func AppendEncode(b []byte, v any) ([]byte, error) {
	out, err := envelope.Append(b, v)
	if err != nil {
		return b, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	return out, nil
}

// maxPooledBuf is the largest buffer the transport's pools keep: an outsized
// state transfer is not held on to for the next small message.
const maxPooledBuf = 256 << 10

// Encode serializes a payload (which may be nil) into a self-describing byte
// stream. It fails if the payload's concrete type, or that of a value in one
// of its interface fields, is not registered — the errors simnet's codec
// round trip exists to surface.
func Encode(v any) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	b, err := AppendEncode((*bp)[:0], v)
	out := bytes.Clone(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		encodeBufs.Put(bp)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Decode recovers the payload from an Encode stream.
func Decode(b []byte) (any, error) {
	v, err := envelope.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	return v, nil
}

// RoundTrip encodes and immediately decodes a payload, returning the deep
// copy a real network hop would produce.
func RoundTrip(v any) (any, error) {
	b, err := Encode(v)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

func init() {
	// Predeclared types that travel as bare payloads or responses (e.g. the
	// `true` acknowledgments and integer level indices). Named protocol types
	// are registered by the packages that own them.
	RegisterMessage(false)
	RegisterMessage(int(0))
	RegisterMessage(int64(0))
	RegisterMessage(uint64(0))
	RegisterMessage("")
}

// codecError carries an encoding or decoding failure out of the compiled
// functions to the one recover in catch.
type codecError struct{ err error }

func catch(err *error) {
	if r := recover(); r != nil {
		ce, ok := r.(codecError)
		if !ok {
			panic(r)
		}
		*err = ce.err
	}
}

func fail(format string, args ...any) {
	panic(codecError{fmt.Errorf(format, args...)})
}

// decoder is the unread rest of a decoder's input. alias makes byte slices
// alias it (DecodeAliasing).
type decoder struct {
	b     []byte
	alias bool
}

func (c *typeCodec) decode(data []byte, alias bool, v reflect.Value) (err error) {
	defer catch(&err)
	d := decoder{b: data, alias: alias}
	c.dec(&d, v)
	if len(d.b) != 0 {
		return fmt.Errorf("%d trailing bytes after %s", len(d.b), c.typ)
	}
	return nil
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	d.skipVarint(n)
	return x
}

func (d *decoder) varint() int64 {
	x, n := binary.Varint(d.b)
	d.skipVarint(n)
	return x
}

// skipVarint consumes a varint whose length binary.Uvarint or Varint
// reported as n.
func (d *decoder) skipVarint(n int) {
	switch {
	case n == 0:
		fail("truncated input")
	case n < 0:
		fail("varint overflows 64 bits")
	}
	d.b = d.b[n:]
}

// fit checks that n values of at least min bytes each can follow.
func (d *decoder) fit(n uint64, min int) int {
	if n > uint64(len(d.b)/min) {
		fail("length %d overruns the %d bytes left", n, len(d.b))
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes() []byte {
	n := d.fit(d.uvarint(), 1)
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// compileLocked returns t's codec, compiling it and every type it holds on
// first use. Nothing is cached unless the whole type compiles, so a type that
// panics here can be fixed and registered again. Callers hold regMu.
func compileLocked(t reflect.Type) *typeCodec {
	building := map[reflect.Type]*typeCodec{}
	c := compileType(t, t.String(), building)
	for k, v := range building {
		compiled[k] = v
	}
	return c
}

// compileType builds t's codec; path names t for a registration panic. A
// recursive type finds its own codec in building before it is filled in, so
// the compiled functions reach other codecs through their pointers.
func compileType(t reflect.Type, path string, building map[reflect.Type]*typeCodec) *typeCodec {
	if c := compiled[t]; c != nil {
		return c
	}
	if c := building[t]; c != nil {
		return c
	}
	c := &typeCodec{typ: t, min: 1}
	building[t] = c
	switch t.Kind() {
	case reflect.Bool:
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
		c.dec = func(d *decoder, v reflect.Value) {
			switch d.uvarint() {
			case 0:
			case 1:
				v.SetBool(true)
			default:
				fail("bad bool")
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }
		c.dec = func(d *decoder, v reflect.Value) {
			x := d.varint()
			if v.OverflowInt(x) {
				fail("%d overflows %s", x, v.Type())
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }
		c.dec = func(d *decoder, v reflect.Value) {
			x := d.uvarint()
			if v.OverflowUint(x) {
				fail("%d overflows %s", x, v.Type())
			}
			v.SetUint(x)
		}
	case reflect.String:
		c.enc = func(b []byte, v reflect.Value) []byte { return appendString(b, v.String()) }
		c.dec = func(d *decoder, v reflect.Value) { v.SetString(string(d.bytes())) }
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			c.enc = func(b []byte, v reflect.Value) []byte {
				p := v.Bytes()
				return append(binary.AppendUvarint(b, uint64(len(p))), p...)
			}
			c.dec = func(d *decoder, v reflect.Value) {
				p := d.bytes()
				switch {
				case len(p) == 0:
				case d.alias:
					v.SetBytes(p)
				default:
					v.SetBytes(bytes.Clone(p))
				}
			}
			break
		}
		elem := compileType(t.Elem(), path+"[]", building)
		c.enc = func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) {
			n := d.fit(d.uvarint(), elem.min)
			if n == 0 {
				return
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Map:
		key := compileType(t.Key(), path+"[key]", building)
		val := compileType(t.Elem(), path+"[value]", building)
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			b = binary.AppendUvarint(b, uint64(v.Len())+1)
			k, e := reflect.New(key.typ).Elem(), reflect.New(val.typ).Elem()
			for it := v.MapRange(); it.Next(); {
				k.SetIterKey(it)
				e.SetIterValue(it)
				b = val.enc(key.enc(b, k), e)
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) {
			x := d.uvarint()
			if x == 0 {
				return
			}
			n := d.fit(x-1, key.min+val.min)
			m := reflect.MakeMapWithSize(t, n)
			for i := 0; i < n; i++ {
				k, e := reflect.New(key.typ).Elem(), reflect.New(val.typ).Elem()
				key.dec(d, k)
				val.dec(d, e)
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		}
	case reflect.Struct:
		type field struct {
			index int
			c     *typeCodec
		}
		var fields []field
		c.min = 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fc := compileType(f.Type, path+"."+f.Name, building)
				fields = append(fields, field{i, fc})
				c.min += fc.min
			}
		}
		if len(fields) == 0 {
			panic(fmt.Sprintf("transport: %s: %s has no exported fields to carry", path, t))
		}
		c.enc = func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.c.enc(b, v.Field(f.index))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) {
			for _, f := range fields {
				f.c.dec(d, v.Field(f.index))
			}
		}
	case reflect.Interface:
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			e := v.Elem()
			ec := lookupType(e.Type())
			if ec == nil {
				fail("type %s not registered", e.Type())
			}
			return ec.enc(appendString(b, ec.name), e)
		}
		c.dec = func(d *decoder, v reflect.Value) {
			name := d.bytes()
			if len(name) == 0 {
				return
			}
			ec := lookupName(name)
			switch {
			case ec == nil:
				fail("unknown type %q", name)
			case !ec.typ.Implements(t):
				fail("%s does not implement %s", ec.typ, t)
			}
			e := reflect.New(ec.typ).Elem()
			ec.dec(d, e)
			v.Set(e)
		}
	default:
		panic(fmt.Sprintf("transport: %s: a %s cannot cross the wire (bool, integers, strings, slices, maps, structs and interfaces can)", path, t))
	}
	return c
}

var (
	wireErrMu  sync.Mutex
	wireErrors []error // sentinel errors recoverable from remote error text
)

// RegisterWireError registers a sentinel error that protocol handlers return
// across the wire. A handler error cannot keep its concrete Go identity over
// a real network hop — it arrives as message text — so transports that carry
// handler errors as text (the TCP transport's RemoteError) consult this
// registry: a remote error whose text contains a registered sentinel's text
// matches that sentinel under errors.Is. Register only sentinels whose text
// is distinctive enough to act as an identity (the package-prefixed
// "datastore: ..." convention is).
func RegisterWireError(sentinel error) {
	if sentinel == nil || sentinel.Error() == "" {
		panic("transport: cannot register a nil or empty wire error")
	}
	wireErrMu.Lock()
	defer wireErrMu.Unlock()
	for _, prev := range wireErrors {
		if prev == sentinel {
			return
		}
	}
	wireErrors = append(wireErrors, sentinel)
}

// MatchWireError reports whether msg — the text of a handler error that
// crossed the wire — carries a registered sentinel, and target is that
// sentinel. Transports use it to implement errors.Is on their remote error
// types, so callers can errors.Is(err, sentinel) regardless of substrate.
func MatchWireError(msg string, target error) bool {
	if target == nil {
		return false
	}
	wireErrMu.Lock()
	defer wireErrMu.Unlock()
	for _, s := range wireErrors {
		if s == target {
			return strings.Contains(msg, s.Error())
		}
	}
	return false
}
