package wire

import "testing"

// FuzzDecodeParamsN feeds arbitrary upload bodies and expected lengths
// to the server-side decoder. It must never panic, and it must return
// either an error or exactly want values.
func FuzzDecodeParamsN(f *testing.F) {
	for _, params := range [][]float64{nil, {1}, {0.5, -2, 3e300}, make([]float64, chunkWords+3)} {
		blob, err := EncodeParams(params)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(blob), len(blob) - 1, len(blob) / 2, 12, 8, 4} {
			if cut >= 0 && cut <= len(blob) {
				f.Add(blob[:cut], len(params))
			}
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte, want int) {
		params, err := DecodeParamsN(blob, want)
		if err == nil && len(params) != want {
			t.Fatalf("decoded %d values without error, want %d", len(params), want)
		}
	})
}
