// Package proto defines the compact length-prefixed wire protocol the
// serving front end speaks over the simulated network: a handshake
// (Hello/HelloAck), request frames (Exec for OLTP transactions, Query
// for analytical statements), and reply frames (Result/Error). The
// encoding is deliberately tiny — a u32 length prefix, a kind byte, a
// u64 request id, and a typed payload — so frame sizes feed directly
// into the fluid link model and decoding edge cases (truncated frame,
// oversized frame, version mismatch) are enumerable and testable.
//
// Layout of one frame on the wire:
//
//	u32 length   // bytes after this field: 1 (kind) + 8 (id) + payload
//	u8  kind
//	u64 id       // request id, echoed on the reply; 0 for handshake
//	... payload  // kind-specific, see the payload types below
//
// All integers are little-endian. Strings are u16-length-prefixed, so an
// encoder refuses (panics on) a string longer than 65 535 bytes.
//
// Every encoder returns a frame that is one exact-size allocation
// (len == cap): the header and payload are written into the same buffer,
// and a caller's append cannot write into a frame already sent.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Magic identifies the protocol in the Hello frame; Version must match
// between client and server (there is exactly one version so far — the
// mismatch path exists so the handshake can reject it deterministically).
const (
	Magic   uint32 = 0x44425357 // "DBSW"
	Version uint16 = 1
)

// MaxFrameBytes bounds a frame (length-prefix value). A peer announcing
// a larger frame is faulty or hostile; the decoder rejects it before
// buffering.
const MaxFrameBytes = 1 << 20

// headerBytes is the fixed wire overhead per frame: length prefix, kind
// byte, request id.
const headerBytes = 4 + 1 + 8

// Kind discriminates frames.
type Kind uint8

// Frame kinds.
const (
	KHello    Kind = iota + 1 // client → server: handshake open
	KHelloAck                 // server → client: handshake accepted
	KExec                     // client → server: run an OLTP transaction
	KQuery                    // client → server: run an analytical query
	KResult                   // server → client: success reply
	KError                    // server → client: failure reply
	KGoodbye                  // client → server: orderly close
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KHello:
		return "hello"
	case KHelloAck:
		return "hello-ack"
	case KExec:
		return "exec"
	case KQuery:
		return "query"
	case KResult:
		return "result"
	case KError:
		return "error"
	case KGoodbye:
		return "goodbye"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Code classifies an Error frame.
type Code uint16

// Error codes.
const (
	CodeBadRequest Code = iota + 1 // malformed frame or unknown statement name
	CodeHandshake                  // magic/version mismatch
	CodeOverloaded                 // admission control shed the request
	CodeShutdown                   // server stopping; request not executed
	CodeExecFailed                 // statement ran and failed (aborted / killed)
	CodeFailover                   // primary crashed mid-session; request not committed
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeHandshake:
		return "handshake"
	case CodeOverloaded:
		return "overloaded"
	case CodeShutdown:
		return "shutdown"
	case CodeExecFailed:
		return "exec-failed"
	case CodeFailover:
		return "failover"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// Decode errors.
var (
	ErrTruncated = errors.New("proto: truncated frame")
	ErrTooLarge  = errors.New("proto: frame exceeds MaxFrameBytes")
	ErrBadFrame  = errors.New("proto: malformed frame")
	ErrHandshake = errors.New("proto: handshake mismatch")
)

// Frame is one decoded protocol frame.
type Frame struct {
	Kind    Kind
	ID      uint64
	Payload []byte
}

// header returns a frame's length prefix, kind and id in a buffer with
// room for exactly payloadLen more bytes: the encoder appends the payload
// and the frame ends with len == cap.
func header(kind Kind, id uint64, payloadLen int) []byte {
	buf := make([]byte, headerBytes, headerBytes+payloadLen)
	binary.LittleEndian.PutUint32(buf, uint32(1+8+payloadLen))
	buf[4] = uint8(kind)
	binary.LittleEndian.PutUint64(buf[5:], id)
	return buf
}

// Encode serializes the frame.
func Encode(f Frame) []byte {
	return append(header(f.Kind, f.ID, len(f.Payload)), f.Payload...)
}

// Decode parses one frame from the front of buf, returning the frame and
// the bytes consumed. ErrTruncated means buf holds a prefix of a valid
// frame (read more); ErrTooLarge and ErrBadFrame are terminal.
func Decode(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxFrameBytes {
		return Frame{}, 0, ErrTooLarge
	}
	if n < 1+8 {
		return Frame{}, 0, ErrBadFrame
	}
	total := 4 + int(n)
	if len(buf) < total {
		return Frame{}, 0, ErrTruncated
	}
	f := Frame{
		Kind:    Kind(buf[4]),
		ID:      binary.LittleEndian.Uint64(buf[5:]),
		Payload: buf[headerBytes:total],
	}
	if f.Kind < KHello || f.Kind > KGoodbye {
		return Frame{}, 0, ErrBadFrame
	}
	return f, total, nil
}

// Hello is the handshake payload.
type Hello struct {
	Magic   uint32
	Version uint16
	Client  string // client name, for the server's accept log/telemetry
}

// EncodeHello builds the KHello frame.
func EncodeHello(h Hello) []byte {
	p := header(KHello, 0, 4+2+2+len(h.Client))
	p = binary.LittleEndian.AppendUint32(p, h.Magic)
	p = binary.LittleEndian.AppendUint16(p, h.Version)
	return appendString(p, h.Client)
}

// DecodeHello parses a KHello payload and validates magic/version,
// returning ErrHandshake on mismatch.
func DecodeHello(payload []byte) (Hello, error) {
	if len(payload) < 6 {
		return Hello{}, ErrBadFrame
	}
	h := Hello{
		Magic:   binary.LittleEndian.Uint32(payload),
		Version: binary.LittleEndian.Uint16(payload[4:]),
	}
	var err error
	h.Client, err = readString(payload[6:])
	if err != nil {
		return Hello{}, err
	}
	if h.Magic != Magic || h.Version != Version {
		return h, ErrHandshake
	}
	return h, nil
}

// Request is the Exec/Query payload: a named statement from the served
// catalog plus one argument (key, selectivity cell, …) — the serving
// layer ships statement names, not plans, the way a real wire protocol
// ships SQL text or prepared-statement ids.
type Request struct {
	Name string
	Arg  uint64
}

// EncodeRequest builds a KExec or KQuery frame.
func EncodeRequest(kind Kind, id uint64, r Request) []byte {
	p := header(kind, id, 8+2+len(r.Name))
	p = binary.LittleEndian.AppendUint64(p, r.Arg)
	return appendString(p, r.Name)
}

// DecodeRequest parses a KExec/KQuery payload. A statement name equal to
// one of known is returned as that string, so decoding a served name
// allocates nothing; any other name is copied out of the payload.
func DecodeRequest(payload []byte, known ...string) (Request, error) {
	if len(payload) < 8 {
		return Request{}, ErrBadFrame
	}
	r := Request{Arg: binary.LittleEndian.Uint64(payload)}
	name, err := readBytes(payload[8:])
	if err != nil {
		return r, err
	}
	for _, k := range known {
		if string(name) == k {
			r.Name = k
			return r, nil
		}
	}
	r.Name = string(name)
	return r, nil
}

// Result is the success payload.
type Result struct {
	Rows uint64 // rows produced (analytical) or 1 for a committed txn
}

// EncodeResult builds the KResult frame for request id.
func EncodeResult(id uint64, r Result) []byte {
	return binary.LittleEndian.AppendUint64(header(KResult, id, 8), r.Rows)
}

// DecodeResult parses a KResult payload.
func DecodeResult(payload []byte) (Result, error) {
	if len(payload) < 8 {
		return Result{}, ErrBadFrame
	}
	return Result{Rows: binary.LittleEndian.Uint64(payload)}, nil
}

// EncodeError builds the KError frame for request id.
func EncodeError(id uint64, code Code, msg string) []byte {
	p := header(KError, id, 2+2+len(msg))
	p = binary.LittleEndian.AppendUint16(p, uint16(code))
	return appendString(p, msg)
}

// DecodeError parses a KError payload.
func DecodeError(payload []byte) (Code, string, error) {
	if len(payload) < 2 {
		return 0, "", ErrBadFrame
	}
	code := Code(binary.LittleEndian.Uint16(payload))
	msg, err := readString(payload[2:])
	return code, msg, err
}

// EncodeHelloAck builds the handshake acceptance.
func EncodeHelloAck() []byte { return header(KHelloAck, 0, 0) }

// EncodeGoodbye builds the orderly-close frame.
func EncodeGoodbye() []byte { return header(KGoodbye, 0, 0) }

// appendString appends s behind its u16 length. A longer string would
// encode a frame that decodes to a silent prefix of it, so it panics.
func appendString(p []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		panic(fmt.Sprintf("proto: %d-byte string exceeds the u16 length prefix", len(s)))
	}
	p = binary.LittleEndian.AppendUint16(p, uint16(len(s)))
	return append(p, s...)
}

// readString copies a length-prefixed string out of p.
func readString(p []byte) (string, error) {
	b, err := readBytes(p)
	return string(b), err
}

// readBytes returns a length-prefixed string's bytes, aliasing p.
func readBytes(p []byte) ([]byte, error) {
	if len(p) < 2 {
		return nil, ErrBadFrame
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return nil, ErrBadFrame
	}
	return p[2 : 2+n], nil
}
