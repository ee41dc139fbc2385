// Package wire provides the on-the-wire encodings VCDL uses to move model
// parameters and job metadata between clients, the BOINC-style server and
// the parameter stores. Parameter blobs are gzip-compressed with a CRC-32
// integrity check, modelling the paper's compressed .h5 parameter files
// (21.2 MB each for the 4.97M-parameter model) and BOINC's automatic
// file compression feature.
//
// The encode/decode hot path is allocation-pooled: the 32 KiB staging
// chunks and the gzip compressor/decompressor state are recycled through
// sync.Pools, and EncodeParamsTo streams straight into any io.Writer so
// callers composing framed formats (checkpoints, blob publication) never
// pay an intermediate []byte copy of the compressed payload.
package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

const paramMagic = 0x56505231 // "VPR1"

// chunkWords is the number of float64 values staged per chunk; each chunk
// buffer is therefore 32 KiB.
const chunkWords = 4096

// chunkPool recycles the 32 KiB staging buffers used to convert between
// float64 vectors and little-endian bytes. Pointer-to-array (not slice)
// so Put never allocates a slice header.
var chunkPool = sync.Pool{
	New: func() any { return new([8 * chunkWords]byte) },
}

// gzipWriterPool recycles compressor state (the dominant per-call
// allocation: hundreds of KiB of deflate window and hash tables).
// Writers are created at BestSpeed once and rebound to new destinations
// with Reset.
var gzipWriterPool = sync.Pool{
	New: func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; unreachable
		}
		return zw
	},
}

// gzipReaderPool recycles decompressor state. A gzip.Reader cannot be
// constructed without a stream, so the pool starts empty and is seeded
// after first use.
var gzipReaderPool sync.Pool

func getReader(r io.Reader) (*gzip.Reader, error) {
	if zr, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := zr.Reset(r); err != nil {
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

// EncodeParams serializes a flat parameter vector with compression and a
// trailing checksum.
func EncodeParams(params []float64) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeParamsTo(&buf, params); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeParamsTo streams the compressed, checksummed parameter encoding
// into w without materializing the blob. It is the copy-free seam for
// framed formats: write your frame header, then EncodeParamsTo the
// payload into the same writer.
func EncodeParamsTo(w io.Writer, params []float64) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], paramMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(params)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	zw := gzipWriterPool.Get().(*gzip.Writer)
	defer gzipWriterPool.Put(zw)
	zw.Reset(w)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(zw, crc)
	chunk := chunkPool.Get().(*[8 * chunkWords]byte)
	defer chunkPool.Put(chunk)
	for off := 0; off < len(params); {
		m := len(params) - off
		if m > chunkWords {
			m = chunkWords
		}
		for i := 0; i < m; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(params[off+i]))
		}
		if _, err := mw.Write(chunk[:8*m]); err != nil {
			return fmt.Errorf("wire: write params: %w", err)
		}
		off += m
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := zw.Write(sum[:]); err != nil {
		return fmt.Errorf("wire: write checksum: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("wire: close gzip: %w", err)
	}
	return nil
}

// DecodeParams reverses EncodeParams, verifying the checksum.
func DecodeParams(blob []byte) ([]float64, error) {
	return decodeParams(blob, -1)
}

// DecodeParamsN is DecodeParams for a vector whose length the caller
// already knows, such as an upload from an untrusted client: a header
// claiming any other length is rejected before anything is allocated.
func DecodeParamsN(blob []byte, want int) ([]float64, error) {
	if want < 0 {
		return nil, fmt.Errorf("wire: negative parameter count %d", want)
	}
	return decodeParams(blob, want)
}

// maxInflate is deflate's largest expansion ratio: one 258-byte match
// coded in two bits.
const maxInflate = 1032

// decodeParams decodes blob; want >= 0 pins the vector length.
func decodeParams(blob []byte, want int) ([]float64, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("wire: blob too short (%d bytes)", len(blob))
	}
	if m := binary.LittleEndian.Uint32(blob[0:]); m != paramMagic {
		return nil, fmt.Errorf("wire: bad magic %#x", m)
	}
	n := int(binary.LittleEndian.Uint32(blob[4:]))
	if want >= 0 && n != want {
		return nil, fmt.Errorf("wire: header claims %d parameters, want %d", n, want)
	}
	// A body that could not inflate to n values and the checksum is
	// refused before the vector is allocated.
	if 8*int64(n)+4 > maxInflate*int64(len(blob)-8) {
		return nil, fmt.Errorf("wire: %d-byte body cannot hold %d parameters", len(blob)-8, n)
	}
	zr, err := getReader(bytes.NewReader(blob[8:]))
	if err != nil {
		return nil, fmt.Errorf("wire: open gzip: %w", err)
	}
	defer gzipReaderPool.Put(zr)
	params := make([]float64, n)
	crc := crc32.NewIEEE()
	chunk := chunkPool.Get().(*[8 * chunkWords]byte)
	defer chunkPool.Put(chunk)
	for off := 0; off < n; {
		m := n - off
		if m > chunkWords {
			m = chunkWords
		}
		if _, err := io.ReadFull(zr, chunk[:8*m]); err != nil {
			return nil, fmt.Errorf("wire: read params: %w", err)
		}
		crc.Write(chunk[:8*m])
		for i := 0; i < m; i++ {
			params[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
		off += m
	}
	var sum [4]byte
	if _, err := io.ReadFull(zr, sum[:]); err != nil {
		return nil, fmt.Errorf("wire: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return nil, fmt.Errorf("wire: checksum mismatch: stored %#x, computed %#x", got, crc.Sum32())
	}
	return params, nil
}

// RawSize returns the uncompressed byte size of a parameter vector of
// length n — the number the latency models use for transfer-time
// estimation.
func RawSize(n int) int { return 8 * n }
