package colstore

import (
	"bytes"
	"slices"
	"testing"
)

// maxFuzzRows caps a fuzzed column, so checking every range stays cheap.
const maxFuzzRows = 256

// segmentSeeds are FuzzSegmentRoundTrip's seed corpus. Between them the
// encoder picks every encoding (TestSegmentSeedsCoverEveryEncoding).
var segmentSeeds = [][]byte{
	// 16 symbols 1 apart, runs of 1: packed at width 4.
	append([]byte{0x0f}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
	// 16 symbols 2^60 apart, runs of 1: packed at width 64.
	append([]byte{0xff}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
	// 2 symbols 2^60 apart, two runs of 128: RLE.
	{0xf1, 0xe0, 0xe1},
	// 4 symbols 2^60 apart, runs of 1: dictionary.
	append([]byte{0xf3}, bytes.Repeat([]byte{0, 1, 2, 3}, 16)...),
	// Mixed run lengths over 5 symbols 2^8 apart.
	{0x24, 0x41, 0x02, 0x63, 0xa4, 0x20, 0x81, 0x03},
}

// fuzzValues maps input bytes to a column. The first byte picks the
// alphabet (low nibble + 1 symbols) and the gap between neighbouring
// symbols (2^(4 × high nibble)); every later byte b appends a run of
// 2^(b>>5) copies (1-128) of symbol (b&31) mod alphabet, symbols centred
// on 0, up to maxFuzzRows values. Few symbols with wide gaps favour the
// dictionary, long runs favour RLE, narrow gaps with short runs favour
// packing; the widest gaps wrap around int64.
func fuzzValues(data []byte) []int64 {
	if len(data) == 0 {
		return nil
	}
	alphabet := 1 + int64(data[0]%16)
	shift := uint(data[0]>>4) * 4
	var vals []int64
	for _, b := range data[1:] {
		v := (int64(b&31)%alphabet - alphabet/2) << shift
		for n := 1 << (b >> 5); n > 0 && len(vals) < maxFuzzRows; n-- {
			vals = append(vals, v)
		}
	}
	return vals
}

func TestSegmentSeedsCoverEveryEncoding(t *testing.T) {
	seen := map[Encoding]bool{}
	for _, data := range segmentSeeds {
		seen[Encode(fuzzValues(data)).Enc] = true
	}
	for _, e := range []Encoding{EncPacked, EncRLE, EncDict} {
		if !seen[e] {
			t.Errorf("no seed input encodes as %v", e)
		}
	}
}

// FuzzSegmentRoundTrip encodes the column fuzzValues makes of the input
// and requires every DecodeRange(lo, hi), into one reused buffer, to
// equal vals[lo:hi]; a range past either end clamps to the column.
func FuzzSegmentRoundTrip(f *testing.F) {
	for _, data := range segmentSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzValues(data)
		s := Encode(vals)
		if s.N != len(vals) {
			t.Fatalf("segment holds %d rows, input %d", s.N, len(vals))
		}
		var dst []int64
		for lo := 0; lo <= len(vals); lo++ {
			for hi := lo; hi <= len(vals); hi++ {
				dst = s.DecodeRange(lo, hi, dst)
				if !slices.Equal(dst, vals[lo:hi]) {
					t.Fatalf("%v segment of %d rows: DecodeRange(%d, %d) = %v, want %v",
						s.Enc, s.N, lo, hi, dst, vals[lo:hi])
				}
			}
		}
		if got := s.DecodeRange(-1, s.N+1, nil); !slices.Equal(got, vals) {
			t.Fatalf("%v segment: DecodeRange(-1, N+1) = %v, want %v", s.Enc, got, vals)
		}
	})
}
