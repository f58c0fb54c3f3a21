package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"optchain/serve"
)

// pipedPlace opens a /v1/place request whose body is the returned pipe:
// the test writes lines when it chooses. The response arrives on the
// returned channel once the server sends its headers.
func pipedPlace(t *testing.T, ts *httptest.Server) (*io.PipeWriter, <-chan *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/place", pr)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			close(respc)
			return
		}
		respc <- resp
	}()
	return pw, respc
}

// within receives from c or fails the test after d.
func within[T any](t *testing.T, c <-chan T, d time.Duration, what string) T {
	t.Helper()
	select {
	case v, ok := <-c:
		if !ok {
			t.Fatalf("%s: channel closed", what)
		}
		return v
	case <-time.After(d):
		t.Fatalf("%s: nothing within %v", what, d)
	}
	panic("unreachable")
}

// readLines decodes response lines onto a channel as they arrive.
func readLines(body io.ReadCloser) <-chan resLine {
	out := make(chan resLine, 64)
	go func() {
		defer close(out)
		defer body.Close()
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			var r resLine
			if json.Unmarshal(sc.Bytes(), &r) != nil {
				return
			}
			out <- r
		}
	}()
	return out
}

// TestPlaceStreamsEachDecision writes a body one line at a time and
// requires line i's decision to arrive before line i+2 is written: the
// handler must answer admitted lines whenever the body holds no further
// complete line, not after a window of MaxBatch lines.
func TestPlaceStreamsEachDecision(t *testing.T) {
	const (
		n        = 40
		deadline = 5 * time.Second
	)
	_, ts := newServer(t, serve.Config{})
	pw, respc := pipedPlace(t, ts)
	var lines <-chan resLine
	for i := range n {
		req := serve.Request{ID: idOf(i), Outputs: 1}
		if i > 0 {
			req.Parents = []string{idOf(i - 1)}
		}
		if _, err := fmt.Fprintln(pw, reqLine(t, req)); err != nil {
			t.Fatalf("write line %d: %v", i, err)
		}
		if i == 0 {
			continue
		}
		if lines == nil {
			resp := within(t, respc, deadline, "response headers after two lines")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			lines = readLines(resp.Body)
		}
		r := within(t, lines, deadline, fmt.Sprintf("decision %d before line %d is written", i-1, i+1))
		if r.Error != "" || r.ID != idOf(i-1) || r.Index != i-1 {
			t.Fatalf("decision for line %d: %+v", i-1, r)
		}
	}
	pw.Close()
	r := within(t, lines, deadline, "last decision")
	if r.Error != "" || r.ID != idOf(n-1) || r.Index != n-1 {
		t.Fatalf("last decision: %+v", r)
	}
	if extra, ok := <-lines; ok {
		t.Fatalf("unexpected extra line %+v", extra)
	}
}

// TestPlaceSlowBodyStatusMapping: the first decision is held until a
// second line or the end of the body, so a slow one-line body still maps
// its outcome onto the HTTP status, and a slow two-line body still gets 200
// with per-line errors.
func TestPlaceSlowBodyStatusMapping(t *testing.T) {
	cases := []struct {
		name       string
		lines      []string
		wantStatus int
		wantCodes  []int
	}{
		{"one bad line", []string{`{"outputs":`}, http.StatusBadRequest, []int{400}},
		{"bad line then good line", []string{`{"outputs":`, `{"id":"a","outputs":1}`}, http.StatusOK, []int{400, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newServer(t, serve.Config{})
			pw, respc := pipedPlace(t, ts)
			for i, l := range c.lines {
				if _, err := fmt.Fprintln(pw, l); err != nil {
					t.Fatalf("write: %v", err)
				}
				if i == 0 {
					waitInvalid(t, ts, 1) // the handler has parsed the bad line
				}
			}
			pw.Close()
			resp := within(t, respc, 5*time.Second, "response")
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.wantStatus)
			}
			var codes []int
			for r := range readLines(resp.Body) {
				codes = append(codes, r.Code)
			}
			if fmt.Sprint(codes) != fmt.Sprint(c.wantCodes) {
				t.Fatalf("line codes %v, want %v", codes, c.wantCodes)
			}
		})
	}
}

// TestPlaceMaxBatchOneKeepsPerLineErrors: with a one-line window the
// first line fills it at once, yet a multi-line body must still answer
// 200 with per-line errors rather than take the first line's status.
func TestPlaceMaxBatchOneKeepsPerLineErrors(t *testing.T) {
	_, ts := newServer(t, serve.Config{MaxBatch: 1})
	resp, out := postLines(t, ts, []string{`{"outputs":`, `{"outputs":1}`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(out) != 2 || out[0].Code != http.StatusBadRequest || out[1].Error != "" {
		t.Fatalf("lines %+v, want a 400 line then a decision", out)
	}
}

// waitInvalid polls /metrics until the server has counted want invalid
// lines.
func waitInvalid(t *testing.T, ts *httptest.Server, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := scrapeMetric(t, ts, `optchain_serve_lines_total{outcome="invalid"}`); v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never counted %g invalid lines", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzPlaceBody sends arbitrary bodies through the handler: it must never
// panic, and a 200 response carries exactly one line per non-blank request
// line, in order — each echoing its request's id when the line parses.
func FuzzPlaceBody(f *testing.F) {
	f.Add([]byte("{\"id\":\"a\",\"outputs\":2}\n{\"id\":\"b\",\"parents\":[\"a\"],\"outputs\":1}\n"))
	f.Add([]byte("{\"outputs\":1}\r\n\n  \n{\"inputs\":[0],\"outputs\":1}"))
	f.Add([]byte("{\"id\":\"a\",\"outputs\":1}\n{\"id\":\"a\",\"outputs\":1}\n{\"outputs\":"))
	f.Add([]byte("{\"parents\":[\"nope\"],\"outputs\":1}\n{\"inputs\":[-1],\"outputs\":-3}"))
	f.Add([]byte("\n \t\n"))
	s, err := serve.New(serve.Config{Engine: newEngine(f, 1<<16)})
	if err != nil {
		f.Fatalf("serve.New: %v", err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		var reqs [][]byte
		for _, l := range bytes.Split(body, []byte("\n")) {
			if l = bytes.Trim(l, " \t\r\n"); len(l) > 0 {
				reqs = append(reqs, l)
			}
		}
		if rec.Code != http.StatusOK {
			if len(reqs) > 1 {
				t.Fatalf("status %d for a %d-line body; multi-line bodies report per-line errors", rec.Code, len(reqs))
			}
			return
		}
		var out []resLine
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			var r resLine
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("bad response line %q: %v", sc.Text(), err)
			}
			out = append(out, r)
		}
		if len(out) != len(reqs) {
			t.Fatalf("%d response lines for %d request lines", len(out), len(reqs))
		}
		for i, l := range reqs {
			var req serve.Request
			if json.Unmarshal(l, &req) != nil {
				if out[i].Code != http.StatusBadRequest {
					t.Fatalf("malformed line %d answered %+v, want code 400", i, out[i])
				}
				continue
			}
			if out[i].ID != req.ID {
				t.Fatalf("line %d answers id %q, want %q", i, out[i].ID, req.ID)
			}
		}
	})
}
