package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrWireFormat reports a malformed or truncated shard message.
var ErrWireFormat = errors.New("search: malformed wire message")

// WireCodec is the san.Codec of a search network, which carries only
// the shard protocol: shard.query (queryReq) and shard.hits
// (queryResp). Integers are varints, strings are uvarint-length-
// prefixed, scores are IEEE-754 bits. Decoding is total: malformed
// input yields an error, never a panic or an unbounded allocation.
type WireCodec struct{}

// AppendBody implements san.Codec.
func (WireCodec) AppendBody(dst []byte, kind string, body any) ([]byte, error) {
	switch b := body.(type) {
	case queryReq:
		if kind == msgQuery {
			return binary.AppendVarint(appendString(dst, b.Query), int64(b.K)), nil
		}
	case queryResp:
		if kind == msgHits {
			dst = binary.AppendUvarint(dst, uint64(len(b.Hits)))
			for _, h := range b.Hits {
				dst = appendString(binary.AppendVarint(dst, int64(h.Doc)), h.Title)
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Score))
				dst = binary.AppendVarint(dst, int64(h.Shard))
			}
			return binary.AppendVarint(dst, int64(b.Docs)), nil
		}
	}
	return nil, fmt.Errorf("%w: %s cannot carry %T", ErrWireFormat, kind, body)
}

// DecodeBodyView implements san.Codec. Shard bodies hold no byte
// slices, so nothing aliases data.
func (WireCodec) DecodeBodyView(kind string, data []byte) (any, bool, error) {
	r := &wireReader{buf: data}
	var body any
	switch kind {
	case msgQuery:
		body = queryReq{Query: r.str(), K: int(r.varint())}
	case msgHits:
		// A hit takes at least 11 bytes (three varints and the 8-byte
		// score), which bounds the allocation by the input.
		var resp queryResp
		if n := r.uvarint(); n > uint64(len(r.buf))/11 {
			r.buf = nil
		} else if n > 0 {
			resp.Hits = make([]Hit, n)
		}
		for i := range resp.Hits {
			resp.Hits[i] = Hit{Doc: int(r.varint()), Title: r.str(), Score: r.f64(), Shard: int(r.varint())}
		}
		resp.Docs = int(r.varint())
		body = resp
	}
	if body == nil || r.buf == nil || len(r.buf) != 0 {
		return nil, false, fmt.Errorf("%w: %s (%d bytes)", ErrWireFormat, kind, len(data))
	}
	return body, false, nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// wireReader consumes a message. The first malformed field sets buf to
// nil, and every later read then returns a zero value.
type wireReader struct{ buf []byte }

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	r.advance(n)
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	r.advance(n)
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.buf = nil
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *wireReader) f64() float64 {
	if len(r.buf) < 8 {
		r.buf = nil
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// advance consumes a varint of n bytes; n <= 0 is a decode failure.
func (r *wireReader) advance(n int) {
	if n <= 0 {
		r.buf = nil
		return
	}
	r.buf = r.buf[n:]
}
