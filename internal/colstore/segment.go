// Package colstore implements columnar storage: compressed column
// segments (bit-packed, run-length, or dictionary encoded, whichever is
// smallest per segment) and an updatable nonclustered columnstore index
// with a delta store — the HTAP design of the paper's Table 1.
//
// Compression is performed for real on the actual (scaled-down) values;
// the measured compression ratio then scales the nominal raw bytes to get
// the nominal on-disk segment size, so analytical I/O volumes reflect the
// compressibility of the data rather than a fixed constant.
package colstore

import (
	"fmt"
	"math/bits"
)

// Encoding identifies a segment's physical encoding.
type Encoding int

// Encodings.
const (
	EncPacked Encoding = iota // frame-of-reference bit packing
	EncRLE                    // run-length encoding
	EncDict                   // dictionary + bit-packed codes
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncPacked:
		return "PACKED"
	case EncRLE:
		return "RLE"
	case EncDict:
		return "DICT"
	default:
		return fmt.Sprintf("Encoding(%d)", int(e))
	}
}

// Segment is one compressed column segment with a zone map.
type Segment struct {
	N        int
	Enc      Encoding
	MinVal   int64
	MaxVal   int64
	RawBytes int64 // uncompressed size (N * 8)

	// EncPacked / EncDict payload.
	packed   []uint64
	bitWidth uint
	dict     []int64

	// EncRLE payload.
	runVals   []int64
	runCounts []int32
}

// packInts bit-packs vals-min into width-bit lanes.
func packInts(vals []int64, min int64, width uint) []uint64 {
	if width == 0 {
		return nil
	}
	out := make([]uint64, (uint(len(vals))*width+63)/64)
	bitPos := uint(0)
	for _, v := range vals {
		u := uint64(v - min)
		w := bitPos / 64
		off := bitPos % 64
		out[w] |= u << off
		if off+width > 64 {
			out[w+1] |= u >> (64 - off)
		}
		bitPos += width
	}
	return out
}

// unpackIntsRange reverses packInts for logical rows [lo,hi) without
// decoding the prefix: the bit cursor starts at lo*width.
func unpackIntsRange(packed []uint64, lo, hi int, min int64, width uint, dst []int64) []int64 {
	n := hi - lo
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	if width == 0 {
		for i := range dst {
			dst[i] = min
		}
		return dst
	}
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	bitPos := uint(lo) * width
	for i := 0; i < n; i++ {
		w := bitPos / 64
		off := bitPos % 64
		u := packed[w] >> off
		if off+width > 64 {
			u |= packed[w+1] << (64 - off)
		}
		dst[i] = min + int64(u&mask)
		bitPos += width
	}
	return dst
}

func widthFor(span uint64) uint {
	if span == 0 {
		return 0
	}
	return uint(bits.Len64(span))
}

// Encode compresses vals into a segment, choosing the smallest of
// frame-of-reference packing, RLE, and dictionary encoding.
func Encode(vals []int64) *Segment {
	if len(vals) == 0 {
		return &Segment{}
	}
	uniq := make(map[int64]int64, min(len(vals), 4097)) // the loop stops adding at 4097
	min, max := vals[0], vals[0]
	runs := 1
	for i, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		if i > 0 && v != vals[i-1] {
			runs++
		}
		if len(uniq) <= 4096 {
			if _, ok := uniq[v]; !ok {
				uniq[v] = int64(len(uniq))
			}
		}
	}
	s := &Segment{
		N:        len(vals),
		MinVal:   min,
		MaxVal:   max,
		RawBytes: int64(len(vals)) * 8,
	}

	packedWidth := widthFor(uint64(max - min))
	packedBytes := int64(packedWidth) * int64(len(vals)) / 8

	rleBytes := int64(runs) * 12 // 8B value + 4B count

	dictBytes := int64(1) << 62
	var dictWidth uint
	if len(uniq) <= 4096 {
		dictWidth = widthFor(uint64(len(uniq) - 1))
		dictBytes = int64(len(uniq))*8 + int64(dictWidth)*int64(len(vals))/8
	}

	switch {
	case rleBytes <= packedBytes && rleBytes <= dictBytes:
		s.Enc = EncRLE
		for i := 0; i < len(vals); {
			j := i
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			s.runVals = append(s.runVals, vals[i])
			s.runCounts = append(s.runCounts, int32(j-i))
			i = j
		}
	case dictBytes < packedBytes:
		s.Enc = EncDict
		s.dict = make([]int64, len(uniq))
		for v, code := range uniq {
			s.dict[code] = v
		}
		codes := make([]int64, len(vals))
		for i, v := range vals {
			codes[i] = uniq[v]
		}
		s.bitWidth = dictWidth
		s.packed = packInts(codes, 0, dictWidth)
	default:
		s.Enc = EncPacked
		s.bitWidth = packedWidth
		s.packed = packInts(vals, min, packedWidth)
	}
	return s
}

// DecodeRange decompresses rows [lo,hi) into dst (reusing capacity) and
// returns the value slice — the batch-at-a-time decode path.
// DecodeRange(0, s.N, nil) decodes the whole segment.
func (s *Segment) DecodeRange(lo, hi int, dst []int64) []int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > s.N {
		hi = s.N
	}
	if hi <= lo {
		return dst[:0]
	}
	n := hi - lo
	switch s.Enc {
	case EncRLE:
		if cap(dst) < n {
			dst = make([]int64, n)
		}
		dst = dst[:n]
		pos := 0 // logical row at the start of the current run
		out := 0
		for i, v := range s.runVals {
			runEnd := pos + int(s.runCounts[i])
			if runEnd > lo {
				from := pos
				if from < lo {
					from = lo
				}
				to := runEnd
				if to > hi {
					to = hi
				}
				for r := from; r < to; r++ {
					dst[out] = v
					out++
				}
				if to == hi {
					break
				}
			}
			pos = runEnd
		}
		return dst
	case EncDict:
		// Unpack the codes into dst, then map each through dict in place.
		dst = unpackIntsRange(s.packed, lo, hi, 0, s.bitWidth, dst)
		for i, c := range dst {
			dst[i] = s.dict[c]
		}
		return dst
	default:
		return unpackIntsRange(s.packed, lo, hi, s.MinVal, s.bitWidth, dst)
	}
}

// CompressedBytes returns the actual compressed payload size.
func (s *Segment) CompressedBytes() int64 {
	const header = 64
	switch s.Enc {
	case EncRLE:
		return header + int64(len(s.runVals))*12
	case EncDict:
		return header + int64(len(s.dict))*8 + int64(len(s.packed))*8
	default:
		return header + int64(len(s.packed))*8
	}
}

// Ratio returns compressed/raw (<= 1 for compressible data).
func (s *Segment) Ratio() float64 {
	if s.RawBytes == 0 {
		return 1
	}
	r := float64(s.CompressedBytes()) / float64(s.RawBytes)
	if r > 1 {
		r = 1
	}
	return r
}
