package blob

import "testing"

// FuzzParseRange feeds arbitrary Range headers and blob sizes to the
// server's range parser. Whenever it accepts, the range must lie inside
// the blob: 0 <= start <= end < size.
func FuzzParseRange(f *testing.F) {
	for _, h := range []string{"", "bytes=0-", "bytes=50-", "bytes=10-19", "bytes=10-500", "bytes=-50", "bytes=5-3", "bytes=0-10,20-30", "items=0-"} {
		for _, size := range []int64{0, 1, 100} {
			f.Add(h, size)
		}
	}
	f.Fuzz(func(t *testing.T, h string, size int64) {
		start, end, ok := parseRange(h, size)
		if ok && !(0 <= start && start <= end && end < size) {
			t.Fatalf("parseRange(%q, %d) = %d, %d, ok", h, size, start, end)
		}
	})
}
