package serve

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"wasmbench/internal/browser"
)

// TestRequestDeadlineBounds: every deadline_ms — huge (past the
// time.Duration overflow point), negative, zero, or in range — resolves
// into (0, max].
func TestRequestDeadlineBounds(t *testing.T) {
	const def, max = 30 * time.Second, 2 * time.Minute
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, def},
		{-1, def},
		{-9223372036854775808, def},
		{1, time.Millisecond},
		{60000, time.Minute},
		{120000, max},
		{120001, max},
		{9223372036854, max},
		{9223372036855, max}, // first value whose ms→ns product overflows
		{10000000000000, max},
		{9223372036854775807, max},
	} {
		req := Request{DeadlineMS: tc.ms}
		if got := req.deadline(def, max); got != tc.want {
			t.Errorf("deadline_ms=%d: got %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// servedProfiles mirrors the server's profile table.
func servedProfiles() map[string]*browser.Profile {
	profiles := make(map[string]*browser.Profile)
	for _, p := range browser.AllProfiles() {
		profiles[p.Name()] = p
	}
	return profiles
}

// FuzzRequestDecode drives the /run input boundary without running a
// kernel: JSON bytes → Request → cell → deadline. It never panics, every
// error is typed, a decoded cell names a real bench and profile and a
// served lang, and the deadline lies in (0, max].
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"atax","size":"XS"}`,
		`{"bench":"atax","size":"XS","profile":"chrome-desktop"}`,
		`{"bench":"atax","size":"XS","lang":"x86"}`,
		`{"bench":"doitgen","size":"XS","toolchain":"emscripten"}`,
		`{"bench":"atax","size":"XS","lang":"js","level":"-O3"}`,
		`{"bench":"atax","deadline_ms":10000000000000}`,
		`{"bench":"atax","deadline_ms":-1}`,
		`{"bench":"nope","size":"XXL","profile":"lynx"}`,
		`{"bench":1}`,
		`[]`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	profiles := servedProfiles()
	const def, max = 30 * time.Second, 2 * time.Minute
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			var syn *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &syn) && !errors.As(err, &typ) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		c, err := req.cell(profiles)
		if err != nil {
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("cell error not typed: %v", err)
			}
		} else if c.Bench == nil || c.Profile == nil || (c.Lang != "wasm" && c.Lang != "js") {
			t.Fatalf("decoded cell %+v from %q", c, data)
		}
		if d := req.deadline(def, max); d <= 0 || d > max {
			t.Fatalf("deadline_ms=%d resolved to %v", req.DeadlineMS, d)
		}
	})
}
