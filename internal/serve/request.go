package serve

// Wire types for the /run endpoint, and the request → harness.Cell
// decoder. Every admitted request maps onto exactly the same Cell a
// benchtab sweep would build, so a served measurement is comparable —
// byte-identical on the zero-fault path — to the one-shot numbers.

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"wasmbench/internal/benchsuite"
	"wasmbench/internal/browser"
	"wasmbench/internal/compiler"
	"wasmbench/internal/harness"
	"wasmbench/internal/ir"
)

// Request is one compile+run request.
type Request struct {
	// Bench is the kernel name (e.g. "atax"); required.
	Bench string `json:"bench"`
	// Size is the input class (XS, S, M, L, XL); default M.
	Size string `json:"size,omitempty"`
	// Lang selects the backend: "wasm" (default) or "js".
	Lang string `json:"lang,omitempty"`
	// Level is the optimization level ("-O2" default; "0".."3", "s", "z"
	// and "fast" spellings accepted, as in benchtab).
	Level string `json:"level,omitempty"`
	// Profile is the browser profile name ("chrome-desktop" default).
	Profile string `json:"profile,omitempty"`
	// Toolchain is "cheerp" (default) or "emscripten".
	Toolchain string `json:"toolchain,omitempty"`
	// DeadlineMS overrides the server's default per-request deadline;
	// capped at the server's MaxDeadline.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// ErrInvalidRequest wraps every error decoding a request into its cell;
// the server answers it with StatusInvalid.
var ErrInvalidRequest = errors.New("invalid request")

// Response statuses. Every admitted request terminates with exactly one.
const (
	StatusOK          = "ok"
	StatusInvalid     = "invalid"      // malformed request; never admitted
	StatusShed        = "shed"         // load-shed at admission (queue full or injected)
	StatusRejected    = "rejected"     // refused at admission by an injected fault
	StatusDraining    = "draining"     // refused at admission during graceful drain
	StatusBreakerOpen = "breaker-open" // refused by an open circuit breaker
	StatusFailed      = "failed"       // ran once and failed with a typed error
	StatusTimeout     = "timeout"      // exceeded its deadline (queued or running)
	StatusCanceled    = "canceled"     // canceled by drain before completing
)

// Response is the terminal outcome of one request.
type Response struct {
	Status string `json:"status"`
	Cell   string `json:"cell,omitempty"`
	Error  string `json:"error,omitempty"`
	// Injected marks errors that came from the deterministic fault plan
	// (drills), distinguishing them from organic failures: a failed cell
	// whose error unwraps to a faultinject error, or an admission the
	// serve.admit or serve.shed point refused. An "ok" response is never
	// injected, since no fault point alters a measurement it lets finish.
	Injected bool `json:"injected,omitempty"`
	// RetryAfterMS accompanies shed / breaker-open / draining responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// Measurement (status "ok"): the same virtual metrics a one-shot
	// benchtab run of the identical cell reports.
	ExecMS      float64 `json:"exec_ms,omitempty"`
	MemoryKB    float64 `json:"memory_kb,omitempty"`
	Cycles      float64 `json:"cycles,omitempty"`
	Steps       uint64  `json:"steps,omitempty"`
	MemoryBytes uint64  `json:"memory_bytes,omitempty"`
	MemChecksum uint64  `json:"mem_checksum,omitempty"`

	// Execution metadata.
	CacheHit   bool    `json:"cache_hit,omitempty"`
	VMPooled   bool    `json:"vm_pooled,omitempty"`
	VMRecycled bool    `json:"vm_recycled,omitempty"`
	QueueMS    float64 `json:"queue_ms,omitempty"`
	RunMS      float64 `json:"run_ms,omitempty"`
}

// HTTPStatus maps a response status to its HTTP status code.
func (r *Response) HTTPStatus() int {
	switch r.Status {
	case StatusOK:
		return http.StatusOK
	case StatusInvalid:
		return http.StatusBadRequest
	case StatusShed:
		return http.StatusTooManyRequests
	case StatusTimeout:
		return http.StatusGatewayTimeout
	case StatusFailed:
		return http.StatusInternalServerError
	default: // rejected, draining, breaker-open, canceled
		return http.StatusServiceUnavailable
	}
}

func parseSize(s string) (benchsuite.Size, error) {
	if s == "" {
		return benchsuite.M, nil
	}
	for _, sz := range benchsuite.AllSizes {
		if strings.EqualFold(sz.String(), s) {
			return sz, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (XS, S, M, L, XL)", s)
}

func parseToolchain(s string) (compiler.Toolchain, error) {
	switch strings.ToLower(s) {
	case "", "cheerp":
		return compiler.Cheerp, nil
	case "emscripten":
		return compiler.Emscripten, nil
	}
	return 0, fmt.Errorf("unknown toolchain %q (cheerp, emscripten)", s)
}

// cell decodes the request into the harness cell it denotes, resolving
// profiles against the server's shared profile table (one instance per
// name, so pooled instruments and warm state are shared across requests).
// Every error wraps ErrInvalidRequest.
func (req *Request) cell(profiles map[string]*browser.Profile) (c harness.Cell, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
	}()
	if req.Bench == "" {
		return c, fmt.Errorf("missing bench name")
	}
	b, err := benchsuite.ByName(req.Bench)
	if err != nil {
		return c, err
	}
	size, err := parseSize(req.Size)
	if err != nil {
		return c, err
	}
	lang := req.Lang
	switch lang {
	case "":
		lang = "wasm"
	case "wasm", "js":
	default:
		return c, fmt.Errorf("unknown lang %q (wasm, js)", req.Lang)
	}
	level := ir.O2
	if req.Level != "" {
		level, err = ir.ParseOptLevel(req.Level)
		if err != nil {
			return c, err
		}
	}
	tc, err := parseToolchain(req.Toolchain)
	if err != nil {
		return c, err
	}
	name := req.Profile
	if name == "" {
		name = "chrome-desktop"
	}
	profile := profiles[name]
	if profile == nil {
		known := make([]string, 0, len(profiles))
		for n := range profiles {
			known = append(known, n)
		}
		return c, fmt.Errorf("unknown profile %q (have: %s)", name, strings.Join(known, ", "))
	}
	return harness.Cell{
		Bench: b, Size: size, Level: level, Lang: lang,
		Profile: profile, Toolchain: tc,
	}, nil
}

// deadline resolves the request's deadline against the server bounds:
// deadline_ms when positive, else def, capped at max. deadline_ms is
// compared with the cap before it is converted, so a huge value cannot
// overflow time.Duration into a negative, already expired deadline.
func (req *Request) deadline(def, max time.Duration) time.Duration {
	d := def
	if req.DeadlineMS > 0 {
		if max > 0 && int64(req.DeadlineMS) > max.Milliseconds() {
			return max
		}
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
