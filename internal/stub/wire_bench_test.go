package stub

import (
	"testing"
)

// benchBody is a representative hot-path message: the periodic load
// report every worker sends every ReportInterval.
func benchBody() (string, any) {
	return MsgLoadReport, wireSamples()[MsgLoadReport]
}

// BenchmarkWireEncodeAppend measures the steady-state encode path the
// SAN runs: appending into a recycled buffer. This must
// stay at 0 allocs/op — the pooled-codec acceptance criterion.
func BenchmarkWireEncodeAppend(b *testing.B) {
	kind, body := benchBody()
	buf, err := EncodeBodyAppend(nil, kind, body)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = EncodeBodyAppend(buf[:0], kind, body)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncode is the cold path: every encode allocates its own
// buffer.
func BenchmarkWireEncode(b *testing.B) {
	kind, body := benchBody()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBody(kind, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode measures the per-delivery decode cost (each
// recipient materializes its own value from the shared bytes).
func BenchmarkWireDecode(b *testing.B) {
	kind, body := benchBody()
	data, err := EncodeBody(kind, body)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBody(kind, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBeaconEncodeAppend tracks the biggest recurring encode:
// a manager beacon carrying a full worker table.
func BenchmarkWireBeaconEncodeAppend(b *testing.B) {
	beacon := wireSamples()[MsgBeacon].(Beacon)
	for len(beacon.Workers) < 32 {
		beacon.Workers = append(beacon.Workers, beacon.Workers...)
	}
	// Pre-box so the measurement is the codec, not callsite interface
	// conversion (the SAN receives bodies already boxed in `any`).
	var body any = beacon
	buf, err := EncodeBodyAppend(nil, MsgBeacon, body)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = EncodeBodyAppend(buf[:0], MsgBeacon, body)
		if err != nil {
			b.Fatal(err)
		}
	}
}
