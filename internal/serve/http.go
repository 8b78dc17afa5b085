package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pelta/internal/obs"
	"pelta/internal/tensor"
)

// QueryRequest is one NDJSON line POSTed to /query: a flattened sample in
// the service's input shape, with an optional per-request deadline.
type QueryRequest struct {
	// X is the flattened [C*H*W] pixel vector in [0,1].
	X []float32 `json:"x"`
	// DeadlineMs, when > 0, sheds the request if it cannot be served
	// within that many milliseconds of arrival.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// QueryResponse is one NDJSON line of the reply, index-aligned with the
// request stream.
type QueryResponse struct {
	// Class is the argmax label (meaningless when Error is set).
	Class  int       `json:"class"`
	Logits []float32 `json:"logits,omitempty"`
	Ms     float64   `json:"ms,omitempty"`
	Batch  int       `json:"batch,omitempty"`
	// Flagged reports that the probe detector considered this connection's
	// client flagged when the line was admitted (only ever set with
	// detection enabled).
	Flagged bool   `json:"flagged,omitempty"`
	Error   string `json:"error,omitempty"`
}

// maxQueryLines bounds one /query body so a runaway client cannot buffer
// unbounded requests server-side; larger streams should use more requests.
const maxQueryLines = 16384

// Summary headers of a /query response: how many lines were served, shed
// by admission control, and failed in the inference path. A load client
// detects total overload from the status code and these counters without
// parsing every NDJSON line.
const (
	HeaderServed = "X-Pelta-Served"
	HeaderShed   = "X-Pelta-Shed"
	HeaderErrors = "X-Pelta-Errors"
)

// scanBufs recycles the 64-KB line buffers of /query's scanners. A line
// longer than that grows a private buffer, which is dropped; only the
// pooled one goes back.
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<16)
	return &b
}}

// appendQueryLine is the /query fast path: it decodes a line of exactly
// the shape json.Marshal gives a QueryRequest — {"x":[…]} with an optional
// "deadline_ms", in either order, JSON whitespace anywhere — appending the
// values to xs and returning the deadline. Each number must match the JSON
// grammar and is parsed with strconv.ParseFloat at the bit size of its
// field, the call encoding/json makes, so an accepted line yields the very
// bits json.Unmarshal would. Anything else — another key or spelling, a
// repeated key, null, nesting, escapes, trailing bytes, a value out of
// float32 range — returns ok == false with xs cut back to its input
// length, and the caller hands the line to json.Unmarshal, so what is
// accepted and every error message stay encoding/json's.
func appendQueryLine(xs []float32, line []byte) (_ []float32, deadlineMs float64, ok bool) {
	n := len(xs)
	fail := func() ([]float32, float64, bool) { return xs[:n], 0, false }
	var seenX, seenDeadline bool
	i := skipSpace(line, 0)
	if !at(line, i, '{') {
		return fail()
	}
	for {
		i = skipSpace(line, i+1)
		isX := !seenX && bytes.HasPrefix(line[i:], keyX)
		switch {
		case isX:
			seenX, i = true, i+len(keyX)
		case !seenDeadline && bytes.HasPrefix(line[i:], keyDeadline):
			seenDeadline, i = true, i+len(keyDeadline)
		default:
			return fail()
		}
		if i = skipSpace(line, i); !at(line, i, ':') {
			return fail()
		}
		i = skipSpace(line, i+1)
		if isX {
			if !at(line, i, '[') {
				return fail()
			}
			i = skipSpace(line, i+1)
			for first := true; !at(line, i, ']'); first = false {
				if !first {
					if !at(line, i, ',') {
						return fail()
					}
					i = skipSpace(line, i+1)
				}
				v, end, ok := parseNumber(line, i, 32)
				if !ok {
					return fail()
				}
				xs = append(xs, float32(v))
				i = skipSpace(line, end)
			}
			i++
		} else if deadlineMs, i, ok = parseNumber(line, i, 64); !ok {
			return fail()
		}
		if i = skipSpace(line, i); at(line, i, '}') {
			break
		}
		if !at(line, i, ',') {
			return fail()
		}
	}
	if !seenX || skipSpace(line, i+1) != len(line) {
		return fail()
	}
	return xs, deadlineMs, true
}

// The two keys of the fast path, quotes included.
var (
	keyX        = []byte(`"x"`)
	keyDeadline = []byte(`"deadline_ms"`)
)

// at reports whether b[i] exists and is c.
func at(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }

// parseNumber parses the JSON number at b[i] with strconv.ParseFloat at
// bitSize and returns it with the index just past it. ok is false when no
// JSON number starts there or ParseFloat refuses it (out of range).
func parseNumber(b []byte, i, bitSize int) (v float64, end int, ok bool) {
	if end = numberEnd(b, i); end < 0 {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(b[i:end]), bitSize)
	return v, end, err == nil
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i (JSON whitespace: space, tab, CR, LF).
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// numberEnd returns the end of the JSON number starting at b[i] —
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 when none does.
// strconv.ParseFloat alone would also take "+1", ".5", "1.", "0x1p0",
// "Inf" and "1_0", which JSON does not.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// skipDigits returns the index of the first non-digit of b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// HeaderClient names the request header carrying the caller's client
// identity for the probe detector. Absent, the identity falls back to the
// connection's remote host, so NATed callers sharing an address also share
// a similarity cache — supply the header for precise attribution.
const HeaderClient = "X-Pelta-Client"

// clientID derives the probe-detector client identity of one request.
func clientID(r *http.Request) string {
	if c := r.Header.Get(HeaderClient); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// NewHandler returns the HTTP surface of a Service:
//
//	POST /query   — NDJSON: one QueryRequest per line, one QueryResponse
//	                per line back, in request order. Lines are submitted
//	                concurrently, so a single connection still exercises
//	                the micro-batcher. ?logits=1 echoes full logit rows.
//	                X-Pelta-Served/-Shed/-Errors summarize the line
//	                outcomes; a request where no line at all was served
//	                answers 503 (every line shed or errored) so callers can
//	                back off without scanning the body.
//	GET  /metrics — JSON metrics Snapshot; ?format=prom switches to
//	                Prometheus text exposition from the unified registry
//	                (serve, detect, autoscaler, kernel, and tee samples).
//	GET  /trace   — recent span records as NDJSON, ordered by span ID
//	                (404 when Config.Trace is unset).
//	GET  /healthz — liveness probe.
//
// Deadlines and per-line latencies are computed on the Service clock, so
// HTTP-level shedding agrees with the batcher's and the whole surface is
// testable under a fake clock.
func NewHandler(s *Service) http.Handler { return NewHandlerWith(s, HandlerOptions{}) }

// HandlerOptions tunes the optional parts of the HTTP surface.
type HandlerOptions struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ — off by default
	// because the profiling surface leaks operational detail.
	Pprof bool
}

// NewHandlerWith is NewHandler with options.
func NewHandlerWith(s *Service, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = s.Registry().WriteProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Metrics().Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		tr := s.Tracer()
		if tr == nil {
			http.Error(w, "tracing disabled (service built without Config.Trace)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = tr.WriteNDJSON(w)
	})
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST NDJSON to /query", http.StatusMethodNotAllowed)
			return
		}
		wantLogits := r.URL.Query().Get("logits") == "1"
		dim := 1
		for _, d := range s.pool.InputShape() {
			dim *= d
		}

		// reject refuses the body over a line that never reaches Submit.
		// Malformed traffic must show in /metrics and the trace, not just
		// in the caller's 4xx, so the line is opened the way SubmitFrom
		// opens one (offered − requests stays the in-flight count).
		client := clientID(r)
		reject := func(code int, msg string) {
			sp, _ := s.begin("query", client)
			s.unserved("query", &sp, obs.OutcomeRejected)
			http.Error(w, msg, code)
		}

		// Every line's values go into one per-body slab, dim apiece; the
		// per-line tensors handed to submit point into it, so it is never
		// recycled across bodies.
		var xs []float32
		var deadlines []float64
		bufp := scanBufs.Get().(*[]byte)
		defer scanBufs.Put(bufp)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(*bufp, 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			n := len(deadlines) + 1
			xs = slices.Grow(xs, dim)
			from := len(xs)
			var deadlineMs float64
			var ok bool
			if xs, deadlineMs, ok = appendQueryLine(xs, line); !ok {
				var q QueryRequest
				if err := json.Unmarshal(line, &q); err != nil {
					reject(http.StatusBadRequest, fmt.Sprintf("line %d: %v", n, err))
					return
				}
				xs, deadlineMs = append(xs, q.X...), q.DeadlineMs
			}
			if got := len(xs) - from; got != dim {
				reject(http.StatusBadRequest, fmt.Sprintf("line %d: sample has %d values, want %d", n, got, dim))
				return
			}
			if n > maxQueryLines {
				reject(http.StatusRequestEntityTooLarge, fmt.Sprintf("too many lines (max %d)", maxQueryLines))
				return
			}
			deadlines = append(deadlines, deadlineMs)
		}
		if err := sc.Err(); err != nil {
			// An oversized or truncated line is rejected traffic too.
			reject(http.StatusBadRequest, err.Error())
			return
		}

		// Fan the lines out concurrently — the batcher coalesces them —
		// then answer in input order. In-flight submits from one body are
		// bounded by the admission queue depth, so a large NDJSON batch
		// streams through the scheduler instead of stampeding the bounded
		// queue and shedding most of itself while replicas sit idle. (The
		// probe detector sees this client's lines in whatever order the
		// submits race in; near-duplicate detection is order-insensitive
		// within one body.) Every line is counted as arriving before the
		// first goroutine starts, so the batcher holds a partial batch for
		// the rest of the body instead of handing it to an idle worker.
		clock := s.Clock()
		shape := s.pool.InputShape()
		out := make([]QueryResponse, len(deadlines))
		var served, shed, failed atomic.Int64
		sem := make(chan struct{}, s.cfg.QueueDepth)
		var wg sync.WaitGroup
		s.arriving.Add(int64(len(deadlines)))
		for i, deadlineMs := range deadlines {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, deadlineMs float64) {
				defer wg.Done()
				defer func() { <-sem }()
				x := tensor.FromSlice(xs[i*dim:(i+1)*dim:(i+1)*dim], shape...)
				start := clock.Now()
				var deadline time.Time
				// A deadline past the Duration range is no deadline: the
				// conversion would wrap it negative and shed the line.
				if ms := deadlineMs * float64(time.Millisecond); ms > 0 && ms < math.MaxInt64 {
					deadline = start.Add(time.Duration(ms))
				}
				res, err := s.submit("query", client, x, deadline)
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						shed.Add(1)
					} else {
						failed.Add(1)
					}
					out[i] = QueryResponse{Error: err.Error()}
					return
				}
				served.Add(1)
				out[i] = QueryResponse{
					Class:   res.Class,
					Ms:      float64(clock.Now().Sub(start)) / float64(time.Millisecond),
					Batch:   res.BatchSize,
					Flagged: res.Flagged,
				}
				if wantLogits {
					out[i].Logits = append([]float32(nil), res.Logits.Data()...)
				}
			}(i, deadlineMs)
		}
		wg.Wait()
		h := w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		h.Set(HeaderServed, strconv.FormatInt(served.Load(), 10))
		h.Set(HeaderShed, strconv.FormatInt(shed.Load(), 10))
		h.Set(HeaderErrors, strconv.FormatInt(failed.Load(), 10))
		if len(deadlines) > 0 && served.Load() == 0 {
			// Nothing in this request got an answer: the service is
			// overloaded (or down) from this caller's point of view, and a
			// 200 would force clients to parse every line to notice.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		for i := range out {
			_ = enc.Encode(&out[i])
		}
	})
	return mux
}
