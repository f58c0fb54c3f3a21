package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Maximum accepted length of one JSON request line.
const maxLineBytes = 1 << 20

// lineResult is one response line of the /v1/place stream. Successful lines
// carry index and shard; failed lines carry the error, an HTTP-equivalent
// code, and — for code 429 — the advertised backoff.
type lineResult struct {
	ID           string `json:"id,omitempty"`
	Index        int    `json:"index"`
	Shard        int    `json:"shard"`
	Error        string `json:"error,omitempty"`
	Code         int    `json:"code,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/place    — placement requests, one JSON object per line
//	                    (JSON-lines); the response streams one decision
//	                    line per request, in order, each flushed once no
//	                    further complete line is buffered. A single-line request
//	                    maps its outcome onto the HTTP status (429 with
//	                    Retry-After on queue-full, 400, 503, 504).
//	GET  /metrics     — Prometheus text exposition
//	GET  /healthz     — liveness: 200 while serving, 503 after Close
//	POST /v1/snapshot — write a state snapshot now (requires StatePath)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", s.handlePlace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	return mux
}

// errCode maps a serve error onto its HTTP-equivalent status code.
func errCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadConfig):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// lineSlot is one request line's place in the response stream: either an
// admitted request awaiting its decision or an already-known result
// (admission rejection, malformed line). Keeping both in one ordered slice
// guarantees response lines come out in request order even when failures
// and in-flight placements interleave.
type lineSlot struct {
	p   *pending
	res lineResult
}

// handlePlace streams placement decisions for a JSON-lines request body.
// Lines are admitted in order, and every admitted line's decision is
// written and flushed whenever the body holds no further complete line —
// before any read that could block — so a client trickling lines in gets
// each answer about as soon as the dispatcher makes it, while a client
// sending a burst still feeds the dispatcher full batches. At most
// MaxBatch lines per connection are admitted but unanswered. The first
// decision is held until a second line or the end of the body is seen, so
// a one-line body can still map its outcome onto the HTTP status.
// Admission rejections (queue full) fail only the rejected line — the
// client retries it after Retry-After — while body-level defects
// (oversized line, malformed JSON) fail that line with code 400.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	// The HTTP/1 server is half-duplex by default: writing the response
	// aborts the unread request body, truncating long streams mid-line.
	// Placement is a pipeline — decisions stream back while later lines are
	// still arriving — so full duplex is required (a no-op on HTTP/2).
	_ = http.NewResponseController(w).EnableFullDuplex()
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	window := max(s.cfg.MaxBatch, 1)
	var (
		slots  []lineSlot
		total  int
		status = http.StatusOK
	)
	// flush answers the admitted lines in order. Before the body has shown
	// a second line or ended, the first line's decision is collected but
	// held back: writing it would commit the HTTP status too early.
	flush := func(eof bool) {
		wrote := false
		for i, sl := range slots {
			res := sl.res
			if sl.p != nil {
				res = s.await(ctx, sl.p)
			}
			if total == 1 && !eof {
				slots[i] = lineSlot{res: res}
				return
			}
			if total == 1 && res.Code != 0 {
				// A single-request body maps its outcome onto the HTTP status
				// so plain callers need not parse error lines.
				status = res.Code
				if status == http.StatusTooManyRequests {
					w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.RetryAfter)))
				}
				w.WriteHeader(status)
			}
			_ = enc.Encode(res)
			wrote = true
		}
		slots = slots[:0]
		if wrote && flusher != nil {
			flusher.Flush()
		}
	}
	// The scanner reads the body only when its buffer holds no complete
	// line, so flushing before every read answers all admitted lines
	// before the handler can block waiting for more.
	sc := bufio.NewScanner(readHook{r: r.Body, before: func() { flush(false) }})
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)

	for sc.Scan() {
		line := sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		total++
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			slots = append(slots, lineSlot{res: lineResult{
				Error: fmt.Sprintf("bad request line %d: %v", total, err),
				Code:  http.StatusBadRequest,
			}})
			s.met.invalid()
		} else {
			p := &pending{ctx: ctx, req: req, enqueued: time.Now(), done: make(chan placeOutcome, 1)}
			if err := s.enqueue(p); err != nil {
				res := lineResult{ID: req.ID, Error: err.Error(), Code: errCode(err)}
				if res.Code == http.StatusTooManyRequests {
					res.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
				}
				slots = append(slots, lineSlot{res: res})
			} else {
				slots = append(slots, lineSlot{p: p})
			}
		}
		if len(slots) >= window {
			flush(false)
			if ctx.Err() != nil {
				s.met.http(status)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		total++
		slots = append(slots, lineSlot{res: lineResult{
			Error: fmt.Sprintf("read body: %v", err),
			Code:  http.StatusBadRequest,
		}})
	}
	if total == 0 {
		http.Error(w, "serve: empty request body (want one JSON object per line)", http.StatusBadRequest)
		s.met.http(http.StatusBadRequest)
		return
	}
	flush(true)
	s.met.http(status)
}

// readHook calls before ahead of every read from r.
type readHook struct {
	r      io.Reader
	before func()
}

func (h readHook) Read(p []byte) (int, error) {
	h.before()
	return h.r.Read(p)
}

// await collects one admitted request's decision, honoring the request
// context and server shutdown.
func (s *Server) await(ctx context.Context, p *pending) lineResult {
	select {
	case o := <-p.done:
		return outcomeLine(p.req.ID, o)
	case <-s.dead:
		select {
		case o := <-p.done:
			return outcomeLine(p.req.ID, o)
		default:
			return lineResult{ID: p.req.ID, Error: ErrServerClosed.Error(), Code: http.StatusServiceUnavailable}
		}
	case <-ctx.Done():
		// The dispatcher sees the same expired context and drops the
		// request before placement; report the deadline to the client.
		return lineResult{ID: p.req.ID, Error: ctx.Err().Error(), Code: http.StatusGatewayTimeout}
	}
}

func outcomeLine(id string, o placeOutcome) lineResult {
	if o.err != nil {
		return lineResult{ID: id, Error: o.err.Error(), Code: errCode(o.err)}
	}
	return lineResult{ID: id, Index: o.index, Shard: o.shard}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	depth, capacity := s.Queue()
	if err := s.met.writeTo(w, s.eng, depth, capacity); err != nil {
		return
	}
	s.met.http(http.StatusOK)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		s.met.http(http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	s.met.http(http.StatusOK)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.Snapshot(r.Context()); err != nil {
		code := errCode(err)
		http.Error(w, err.Error(), code)
		s.met.http(code)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "snapshot written")
	s.met.http(http.StatusOK)
}

// retryAfterSeconds renders a Retry-After header value, rounding up so a
// sub-second backoff still advertises one second.
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// trimSpace trims ASCII whitespace without allocating.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r' || b[len(b)-1] == '\n') {
		b = b[:len(b)-1]
	}
	return b
}
