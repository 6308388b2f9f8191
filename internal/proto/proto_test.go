package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KHello},
		{Kind: KHelloAck, ID: 0},
		{Kind: KExec, ID: 7, Payload: []byte("payload")},
		{Kind: KQuery, ID: 1 << 40, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: KResult, ID: 3, Payload: nil},
		{Kind: KGoodbye},
	} {
		buf := Encode(f)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d", f.Kind, n, len(buf))
		}
		if got.Kind != f.Kind || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("%v: round trip mismatch: %+v", f.Kind, got)
		}
	}
}

func TestDecodeFromStreamConsumesExactly(t *testing.T) {
	// Two frames back to back with trailing garbage: Decode must consume
	// exactly one frame at a time.
	buf := append(Encode(Frame{Kind: KExec, ID: 1, Payload: []byte("a")}),
		Encode(Frame{Kind: KResult, ID: 1, Payload: []byte("bbbb")})...)
	buf = append(buf, 0xFF, 0xFF) // stream residue (start of a next length)
	f1, n1, err := Decode(buf)
	if err != nil || f1.Kind != KExec {
		t.Fatalf("first: %v %v", f1, err)
	}
	f2, n2, err := Decode(buf[n1:])
	if err != nil || f2.Kind != KResult {
		t.Fatalf("second: %v %v", f2, err)
	}
	if _, _, err := Decode(buf[n1+n2:]); err != ErrTruncated {
		t.Fatalf("residue: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := Encode(Frame{Kind: KQuery, ID: 9, Payload: []byte("select")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); err != ErrTruncated {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeOversized(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	if _, _, err := Decode(hdr[:]); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// Exactly at the cap is accepted (given enough bytes follow).
	big := Encode(Frame{Kind: KExec, Payload: make([]byte, MaxFrameBytes-9)})
	if _, _, err := Decode(big); err != nil {
		t.Fatalf("at-cap frame rejected: %v", err)
	}
}

func TestDecodeBadFrame(t *testing.T) {
	// Length too small to hold kind+id.
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[:], 4)
	if _, _, err := Decode(hdr[:]); err != ErrBadFrame {
		t.Fatalf("short length: err = %v, want ErrBadFrame", err)
	}
	// Unknown kind byte.
	buf := Encode(Frame{Kind: KExec, ID: 1})
	buf[4] = 0xEE
	if _, _, err := Decode(buf); err != ErrBadFrame {
		t.Fatalf("bad kind: err = %v, want ErrBadFrame", err)
	}
}

func TestHandshakeRoundTripAndMismatch(t *testing.T) {
	buf := EncodeHello(Hello{Magic: Magic, Version: Version, Client: "openloop-7"})
	f, _, err := Decode(buf)
	if err != nil || f.Kind != KHello {
		t.Fatalf("decode: %v %v", f, err)
	}
	h, err := DecodeHello(f.Payload)
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	if h.Client != "openloop-7" {
		t.Fatalf("client = %q", h.Client)
	}

	for _, bad := range []Hello{
		{Magic: Magic + 1, Version: Version},
		{Magic: Magic, Version: Version + 1},
	} {
		f, _, _ := Decode(EncodeHello(bad))
		if _, err := DecodeHello(f.Payload); err != ErrHandshake {
			t.Fatalf("%+v: err = %v, want ErrHandshake", bad, err)
		}
	}
}

func TestRequestResultErrorRoundTrip(t *testing.T) {
	f, _, _ := Decode(EncodeRequest(KExec, 12, Request{Name: "asdb.PointRead", Arg: 99}))
	r, err := DecodeRequest(f.Payload)
	if err != nil || r.Name != "asdb.PointRead" || r.Arg != 99 || f.ID != 12 {
		t.Fatalf("request: %+v %v", r, err)
	}
	f, _, _ = Decode(EncodeResult(12, Result{Rows: 451}))
	res, err := DecodeResult(f.Payload)
	if err != nil || res.Rows != 451 {
		t.Fatalf("result: %+v %v", res, err)
	}
	f, _, _ = Decode(EncodeError(12, CodeOverloaded, "run queue full"))
	code, msg, err := DecodeError(f.Payload)
	if err != nil || code != CodeOverloaded || msg != "run queue full" {
		t.Fatalf("error: %v %q %v", code, msg, err)
	}
}

// TestDecodeNeverPanicsOnRandomBytes is a seeded pseudo-fuzz pass: the
// decoder must classify arbitrary byte soup as one of its typed errors
// (or decode a valid frame) without panicking or over-reading.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	g := sim.NewRNG(1234)
	for trial := 0; trial < 20000; trial++ {
		n := int(g.Int64n(64))
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(g.Int64n(256))
		}
		f, consumed, err := Decode(buf)
		if err == nil {
			if consumed > len(buf) {
				t.Fatalf("consumed %d > len %d", consumed, len(buf))
			}
			if f.Kind < KHello || f.Kind > KGoodbye {
				t.Fatalf("accepted bad kind %d", f.Kind)
			}
			// Payload decoders must not panic either.
			_, _ = DecodeRequest(f.Payload)
			_, _ = DecodeResult(f.Payload)
			_, _, _ = DecodeError(f.Payload)
			_, _ = DecodeHello(f.Payload)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Decode and, when a frame decodes,
// its payload to every payload decoder: none may panic, and a frame never
// consumes more bytes than it was given. CI fuzzes it for 30 s and every
// other target for 20 s: the wire decoder is the one that reads bytes
// from outside the process.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(Frame{Kind: KExec, ID: 5, Payload: []byte("seed")}))
	f.Add(EncodeHello(Hello{Magic: Magic, Version: Version, Client: "fuzz"}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, consumed, err := Decode(data)
		if err == nil {
			if consumed > len(data) {
				t.Fatalf("consumed %d > len %d", consumed, len(data))
			}
			_, _ = DecodeRequest(fr.Payload)
			_, _ = DecodeResult(fr.Payload)
			_, _, _ = DecodeError(fr.Payload)
			_, _ = DecodeHello(fr.Payload)
		}
	})
}

// sink keeps AllocsPerRun's frames on the heap, as a sent frame is.
var sink []byte

// TestEncodersAllocateOneExactFrame pins the single-buffer encoders: each
// frame is one allocation, and its len equals its cap, so an append by a
// holder of the frame copies instead of writing into a frame already sent.
func TestEncodersAllocateOneExactFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  func() []byte
	}{
		{"EncodeRequest", func() []byte {
			return EncodeRequest(KExec, 12, Request{Name: "asdb.PointRead", Arg: 99})
		}},
		{"EncodeResult", func() []byte { return EncodeResult(12, Result{Rows: 451}) }},
		{"EncodeError", func() []byte { return EncodeError(12, CodeOverloaded, "run queue full") }},
		{"EncodeHello", func() []byte {
			return EncodeHello(Hello{Magic: Magic, Version: Version, Client: "openloop"})
		}},
		{"EncodeHelloAck", EncodeHelloAck},
		{"EncodeGoodbye", EncodeGoodbye},
	} {
		if n := testing.AllocsPerRun(100, func() { sink = tc.enc() }); n != 1 {
			t.Errorf("%s: %v allocations per frame, want 1", tc.name, n)
		}
		f := tc.enc()
		if len(f) != cap(f) {
			t.Errorf("%s: len %d, cap %d: the frame has spare capacity", tc.name, len(f), cap(f))
		}
		if _, n, err := Decode(f); err != nil || n != len(f) {
			t.Errorf("%s: decode consumed %d of %d bytes, err %v", tc.name, n, len(f), err)
		}
	}
}

// TestEncodersRefuseLongStrings pins the u16 string length: a longer
// string would encode a frame that decodes to a silent prefix of it.
func TestEncodersRefuseLongStrings(t *testing.T) {
	long := string(bytes.Repeat([]byte{'x'}, 70_000))
	for name, enc := range map[string]func(){
		"EncodeRequest": func() { EncodeRequest(KExec, 1, Request{Name: long}) },
		"EncodeError":   func() { EncodeError(1, CodeExecFailed, long) },
		"EncodeHello":   func() { EncodeHello(Hello{Magic: Magic, Version: Version, Client: long}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "70000") {
					t.Errorf("%s: recovered %v, want a panic naming the 70000-byte length", name, r)
				}
			}()
			enc()
		}()
	}
	// The longest string the prefix can carry still round-trips.
	longest := long[:math.MaxUint16]
	f, _, err := Decode(EncodeError(1, CodeExecFailed, longest))
	if err != nil {
		t.Fatal(err)
	}
	if _, msg, err := DecodeError(f.Payload); err != nil || msg != longest {
		t.Fatalf("65535-byte message: %d bytes back, err %v", len(msg), err)
	}
}

// FuzzRequestRoundTrip pins the single-buffer encoder's layout against
// the decoder: any request with a name the u16 prefix can carry comes
// back unchanged from exactly the bytes encoded.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add("asdb.PointRead", uint64(99))
	f.Add("", uint64(0))
	f.Add("asdb.SumBig", uint64(1)<<63)
	f.Fuzz(func(t *testing.T, name string, arg uint64) {
		if len(name) > math.MaxUint16 {
			t.Skip("longer than the u16 length prefix")
		}
		frame := EncodeRequest(KQuery, arg^1, Request{Name: name, Arg: arg})
		fr, n, err := Decode(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes, err %v", n, len(frame), err)
		}
		r, err := DecodeRequest(fr.Payload)
		if err != nil || fr.Kind != KQuery || fr.ID != arg^1 || r.Name != name || r.Arg != arg {
			t.Fatalf("got %v id %d %+v, err %v; want query id %d {%q %d}", fr.Kind, fr.ID, r, err, arg^1, name, arg)
		}
		// Against a catalogue the name decodes the same, known or not,
		// and owns its bytes: overwriting the frame leaves it intact.
		r, err = DecodeRequest(fr.Payload, "asdb.PointRead", "asdb.SumBig")
		clear(frame)
		if err != nil || r.Name != name || r.Arg != arg {
			t.Fatalf("against a catalogue: %+v, err %v; want {%q %d}", r, err, name, arg)
		}
	})
}

// TestDecodeRequestResolvesKnownNames pins the served path's decode: a
// name in the catalogue comes back as the catalogue's own string without
// an allocation, and any other name is copied out of the payload.
func TestDecodeRequestResolvesKnownNames(t *testing.T) {
	known := []string{"asdb.PointRead", "asdb.Update", "asdb.SumBig"}
	f, _, _ := Decode(EncodeRequest(KExec, 1, Request{Name: "asdb.Update", Arg: 7}))
	var r Request
	if n := testing.AllocsPerRun(100, func() { r, _ = DecodeRequest(f.Payload, known...) }); n != 0 {
		t.Errorf("decoding a known name allocates %v, want 0", n)
	}
	if r.Name != "asdb.Update" || r.Arg != 7 {
		t.Fatalf("known name: %+v", r)
	}
	f, _, _ = Decode(EncodeRequest(KExec, 2, Request{Name: "asdb.Nope", Arg: 8}))
	r, err := DecodeRequest(f.Payload, known...)
	clear(f.Payload)
	if err != nil || r.Name != "asdb.Nope" || r.Arg != 8 {
		t.Fatalf("unknown name: %+v, err %v", r, err)
	}
}
