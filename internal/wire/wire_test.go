package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, 10000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(params) {
		t.Fatalf("len = %d, want %d", len(back), len(params))
	}
	for i := range params {
		if params[i] != back[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestEmptyParams(t *testing.T) {
	blob, err := EncodeParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("len = %d, want 0", len(back))
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, err := DecodeParams([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob should fail")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	blob, err := EncodeParams([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0xff
	if _, err := DecodeParams(blob); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestDecodeCorruptedPayload(t *testing.T) {
	params := make([]float64, 4096)
	for i := range params {
		params[i] = float64(i)
	}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte in the middle of the compressed stream; either gzip or
	// the CRC must catch it.
	blob[len(blob)/2] ^= 0xff
	if _, err := DecodeParams(blob); err == nil {
		t.Fatal("corrupted payload should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	blob, err := EncodeParams(make([]float64, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeParams(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob should fail")
	}
}

func TestCompressibleParamsShrink(t *testing.T) {
	params := make([]float64, 100000) // all zeros: highly compressible
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > RawSize(len(params))/10 {
		t.Fatalf("zero params compressed to %d bytes, want < %d", len(blob), RawSize(len(params))/10)
	}
}

func TestRawSize(t *testing.T) {
	if RawSize(4972746) != 39781968 {
		t.Fatalf("RawSize = %d", RawSize(4972746))
	}
}

func TestSpecialValuesRoundTrip(t *testing.T) {
	params := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if math.Float64bits(params[i]) != math.Float64bits(back[i]) {
			t.Fatalf("bit mismatch at %d", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(params []float64) bool {
		blob, err := EncodeParams(params)
		if err != nil {
			return false
		}
		back, err := DecodeParams(blob)
		if err != nil {
			return false
		}
		if len(back) != len(params) {
			return false
		}
		for i := range params {
			if math.Float64bits(params[i]) != math.Float64bits(back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeParamsNRejectsLengthBeforeAllocating(t *testing.T) {
	blob, err := EncodeParams([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeParamsN(blob, 3); err != nil || len(back) != 3 {
		t.Fatalf("DecodeParamsN(3) = %v, %v", back, err)
	}
	if _, err := DecodeParamsN(blob, 4); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// A rewritten header claiming 2^32-1 parameters must be refused
	// without allocating the 32 GiB it names.
	evil := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(evil[4:], math.MaxUint32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeParamsN(evil, 3); err == nil {
		t.Fatal("rewritten header accepted")
	}
	// A negative count must not fall back to trusting the header, and
	// the unpinned decoder refuses a header its body cannot hold.
	if _, err := DecodeParamsN(evil, -1); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := DecodeParams(evil); err == nil {
		t.Fatal("header larger than the body can inflate to accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", grew)
	}
}
