package proto

import "testing"

// BenchmarkEncodeDecodeRequest is one request frame encoded, then decoded
// back to its statement name and argument: the wire cost of a request on
// both ends of a connection.
func BenchmarkEncodeDecodeRequest(b *testing.B) {
	b.ReportAllocs()
	for i := uint64(0); i < uint64(b.N); i++ {
		fr, _, err := Decode(EncodeRequest(KExec, i, Request{Name: "asdb.PointRead", Arg: i}))
		if err == nil {
			_, err = DecodeRequest(fr.Payload)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
