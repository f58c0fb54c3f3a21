package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"optchain"
)

// Serving phase: optchain-serve runs as its own process with a state file.
// One generator process (this one) offers serveRate tx/s open loop over
// serveConns full-duplex JSON-lines connections, each carrying its own
// scenario stream, and asks for a snapshot every snapshotEvery.

const (
	snapshotEvery = 2 * time.Second
	// sendTick is the generator's pacing granularity: every tick it writes
	// all lines that have come due.
	sendTick = time.Millisecond
	// clockTicksPerSec is Linux's USER_HZ, the unit of /proc/<pid>/stat
	// CPU times.
	clockTicksPerSec = 100
)

// server is one optchain-serve child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited and been reaped
	err  error         // Wait's result, valid after done

	mu   sync.Mutex
	tail []string // last lines of the server's log
}

// startServer starts optchain-serve on a free port with a fresh state file
// in dir and returns once /healthz answers.
func startServer(bin, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", strconv.Itoa(shards),
		"-state", dir+"/state.bin", "-snapshot-every", "1h")
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(line, " on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
	case <-s.done:
		return nil, fmt.Errorf("optchain-serve exited during start-up: %v\n%s", s.err, s.logTail())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("optchain-serve did not report its address within 30s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("optchain-serve not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop asks the server to drain and write its final snapshot, and waits
// for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("optchain-serve did not exit within 60s of SIGTERM")
	}
	if s.err != nil {
		return fmt.Errorf("optchain-serve: %v\n%s", s.err, s.logTail())
	}
	return nil
}

// kill ends the process at once and waits until it is reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.done
}

// connLoad is one connection's pre-encoded request stream: line i ends at
// body offset ends[i] and carries the id prefix+i.
type connLoad struct {
	prefix string
	body   []byte
	ends   []int
}

type serveLoad struct {
	conns [serveConns]connLoad
	n     int
}

// buildServeLoad generates each connection's scenario stream and encodes
// it as JSON lines whose parents name earlier ids of the same stream.
func buildServeLoad(seed int64, n int) (*serveLoad, error) {
	per := n / serveConns
	l := &serveLoad{n: per * serveConns}
	for c := range l.conns {
		src, err := optchain.NewWorkloadSource(serveSpec, optchain.WorkloadParams{
			N: per, Seed: seed*serveConns + int64(c), Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		cl := connLoad{prefix: string(rune('a' + c)), ends: make([]int, 0, per)}
		var tx optchain.WorkloadTx
		var b []byte
		for len(cl.ends) < per && src.Next(&tx) {
			b = append(b, `{"id":"`...)
			b = append(b, cl.prefix...)
			b = strconv.AppendInt(b, int64(len(cl.ends)), 10)
			b = append(b, '"')
			if len(tx.Inputs) > 0 {
				b = append(b, `,"parents":[`...)
				for j, in := range tx.Inputs {
					if j > 0 {
						b = append(b, ',')
					}
					b = append(b, '"')
					b = append(b, cl.prefix...)
					b = strconv.AppendInt(b, int64(in.Tx), 10)
					b = append(b, '"')
				}
				b = append(b, ']')
			}
			b = append(b, `,"outputs":`...)
			b = strconv.AppendInt(b, int64(tx.Outputs), 10)
			b = append(b, "}\n"...)
			cl.ends = append(cl.ends, len(b))
		}
		if closer, ok := src.(io.Closer); ok {
			if err := closer.Close(); err != nil {
				return nil, err
			}
		}
		if len(cl.ends) != per {
			return nil, fmt.Errorf("%s produced %d of %d txs", serveSpec, len(cl.ends), per)
		}
		cl.body = b
		l.conns[c] = cl
	}
	return l, nil
}

type serveStats struct {
	n         int // lines offered, over all sessions
	correct   bool
	attempted int64
	failed    int64

	latMS   []float64 // due → decision per line; +Inf for failed lines
	lagMS   []float64 // generator lateness per line
	snapMS  []float64 // POST /v1/snapshot call times
	scraped map[string]float64
	cpuTick int64 // server CPU over the sessions, in clock ticks
	proc    procStats
}

// session is one server with the load it will be offered.
type session struct {
	srv  *server
	load *serveLoad
}

// runServe offers each session's load open loop to its own server, checks
// every answer, and stops the server. Counters scraped from the servers'
// /metrics are summed over the sessions.
func runServe(sessions []session) (*serveStats, error) {
	ss := &serveStats{correct: true, scraped: map[string]float64{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, se := range sessions {
		if err := ss.runSession(se.srv, se.load); err != nil {
			return nil, err
		}
		if err := se.srv.stop(); err != nil {
			return nil, fmt.Errorf("stop server: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	ss.attempted = int64(ss.n)
	ss.proc = procStats{
		allocPerTx: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ss.n),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
	}
	if lag := quantile(ss.lagMS, 0.99); lag > maxGenLagMS {
		return nil, fmt.Errorf("invalid run: generator p99 lateness %.1f ms exceeds %d ms, so the offered load was not delivered on schedule", lag, maxGenLagMS)
	}
	return ss, nil
}

func (ss *serveStats) runSession(srv *server, load *serveLoad) error {
	lat := make([]float64, load.n)
	lag := make([]float64, load.n)
	indexes := make([][]int, serveConns)
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond)
	per := load.n / serveConns
	stop := make(chan struct{})
	var (
		snapMS  []float64
		snapErr error
		snapWG  sync.WaitGroup
	)
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		snapMS, snapErr = snapshotLoop(srv.addr, start, stop)
	}()
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Connection c's lines are due half a slot apart from the other
			// connection's, so the two streams interleave evenly.
			off := time.Duration(float64(c) / float64(serveRate) * float64(time.Second))
			indexes[c], errs[c] = runConn(srv.addr, &load.conns[c], start.Add(off),
				lat[c*per:(c+1)*per], lag[c*per:(c+1)*per])
		}(c)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	if err := errors.Join(append(errs, snapErr)...); err != nil {
		return err
	}
	scraped, err := scrape(srv.addr)
	if err != nil {
		return err
	}
	ss.check(load.n, indexes, lat, scraped)
	ss.n += load.n
	ss.latMS = append(ss.latMS, lat...)
	ss.lagMS = append(ss.lagMS, lag...)
	ss.snapMS = append(ss.snapMS, snapMS...)
	ss.cpuTick += cpu1 - cpu0
	for k, v := range scraped {
		ss.scraped[k] += v
	}
	return nil
}

// check requires every line of a session answered once, in order, with
// indexes that cover [0, n) exactly, and /metrics agreeing on the placed
// count.
func (ss *serveStats) check(n int, indexes [][]int, lat []float64, scraped map[string]float64) {
	seen := make([]bool, n)
	for c := range indexes {
		for _, idx := range indexes[c] {
			if idx < 0 || idx >= n || seen[idx] {
				ss.correct = false
				fmt.Fprintf(os.Stderr, "serve: index %d out of range or repeated\n", idx)
				return
			}
			seen[idx] = true
		}
	}
	var failed int64
	for _, l := range lat {
		if math.IsInf(l, 1) {
			failed++
		}
	}
	if failed > 0 {
		ss.correct = false
		ss.failed += failed
		fmt.Fprintf(os.Stderr, "serve: %d of %d lines failed\n", failed, n)
	}
	for _, series := range []string{"optchain_engine_placed_total", `optchain_serve_lines_total{outcome="placed"}`} {
		if got := scraped[series]; got != float64(n) {
			ss.correct = false
			fmt.Fprintf(os.Stderr, "serve: /metrics %s = %v, want %d\n", series, got, n)
		}
	}
}

// respLine is one /v1/place response line.
type respLine struct {
	ID    string `json:"id"`
	Index int    `json:"index"`
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// runConn streams one connection's lines on schedule (line i due at
// start + i/perConnRate) and reads the decisions as they arrive. It fills
// lat and lag per line and returns the indexes of the placed lines.
func runConn(addr string, cl *connLoad, start time.Time, lat, lag []float64) ([]int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	n := len(cl.ends)
	for i := range lat {
		lat[i] = math.Inf(1)
	}
	slot := float64(time.Second) * serveConns / serveRate
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) * slot)) }

	type readResult struct {
		indexes []int
		err     error
	}
	readc := make(chan readResult, 1)
	go func() {
		idx, err := readDecisions(conn, addr, cl, due, lat)
		readc <- readResult{idx, err}
	}()

	fmt.Fprintf(conn, "POST /v1/place HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", addr)
	var chunk []byte
	for sent := 0; sent < n; {
		now := time.Now()
		k := 0 // lines due by now
		if el := now.Sub(start); el >= 0 {
			k = min(int(float64(el)/slot)+1, n)
		}
		if k <= sent {
			time.Sleep(max(due(sent).Sub(now), sendTick))
			continue
		}
		for i := sent; i < k; i++ {
			lag[i] = float64(now.Sub(due(i)).Nanoseconds()) / 1e6
		}
		first := 0
		if sent > 0 {
			first = cl.ends[sent-1]
		}
		data := cl.body[first:cl.ends[k-1]]
		chunk = strconv.AppendInt(chunk[:0], int64(len(data)), 16)
		chunk = append(chunk, "\r\n"...)
		chunk = append(chunk, data...)
		chunk = append(chunk, "\r\n"...)
		if _, err := conn.Write(chunk); err != nil {
			return nil, fmt.Errorf("send: %w", err)
		}
		sent = k
	}
	if _, err := io.WriteString(conn, "0\r\n\r\n"); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	r := <-readc
	return r.indexes, r.err
}

// readDecisions reads the streamed response, requiring one line per
// request line, in order, each echoing its request's id.
func readDecisions(conn net.Conn, addr string, cl *connLoad, due func(int) time.Time, lat []float64) ([]int, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/place", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReaderSize(conn, 256<<10), req)
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/place status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	indexes := make([]int, 0, len(cl.ends))
	var want []byte
	i := 0
	for ; sc.Scan(); i++ {
		arrived := time.Now()
		if i >= len(cl.ends) {
			return nil, fmt.Errorf("more response lines than the %d sent", len(cl.ends))
		}
		var r respLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("response line %d: %w", i, err)
		}
		want = strconv.AppendInt(append(want[:0], cl.prefix...), int64(i), 10)
		if r.ID != string(want) {
			return nil, fmt.Errorf("response line %d answers id %q, want %q", i, r.ID, want)
		}
		if r.Error != "" || r.Code != 0 {
			fmt.Fprintf(os.Stderr, "serve: line %s failed: %d %s\n", want, r.Code, r.Error)
			continue
		}
		lat[i] = float64(arrived.Sub(due(i)).Nanoseconds()) / 1e6
		indexes = append(indexes, r.Index)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read decisions: %w", err)
	}
	if i != len(cl.ends) {
		return nil, fmt.Errorf("answered %d of %d lines", i, len(cl.ends))
	}
	return indexes, nil
}

// snapshotLoop posts /v1/snapshot every snapshotEvery from start until
// stop closes and returns each call's duration.
func snapshotLoop(addr string, start time.Time, stop <-chan struct{}) ([]float64, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	var calls []float64
	for next := start.Add(snapshotEvery); ; next = next.Add(snapshotEvery) {
		select {
		case <-stop:
			return calls, nil
		case <-time.After(time.Until(next)):
		}
		t0 := time.Now()
		resp, err := client.Post("http://"+addr+"/v1/snapshot", "text/plain", nil)
		if err != nil {
			return calls, fmt.Errorf("snapshot: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // draining only frees the connection
		resp.Body.Close()
		calls = append(calls, float64(time.Since(t0).Nanoseconds())/1e6)
		if resp.StatusCode != http.StatusOK {
			return calls, fmt.Errorf("snapshot: status %d", resp.StatusCode)
		}
	}
}

// scrape fetches /metrics into a map keyed by the full series name.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// histQuantile estimates a quantile of the server's enqueue→decision
// histogram as Prometheus' histogram_quantile does, in milliseconds.
func histQuantile(m map[string]float64, q float64) float64 {
	const prefix = `optchain_serve_place_latency_seconds_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range m {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
	}
	if len(bs) == 0 {
		return math.NaN()
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo * 1000
			}
			return (lo + (b.le-lo)*(rank-prev)/(b.cum-prev)) * 1000
		}
		lo, prev = b.le, b.cum
	}
	return lo * 1000
}

// procCPU returns a process's user+system CPU time in clock ticks.
func procCPU(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	// Fields after "pid (comm)" start at field 3; utime and stime are 14, 15.
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

func (ss *serveStats) endToEnd(m map[string]metric) {
	ok := float64(ss.n-int(ss.failed)) / float64(ss.n)
	m["serve_p50_ms"] = metric{quantile(ss.latMS, 0.50), "ms"}
	// p95 rather than p99: p99 falls where snapshot stalls start to
	// dominate the tail, and moved by a third between runs on the sizing
	// host. It is reported per layer as serve.client_p99_ms.
	m["serve_p95_ms"] = metric{quantile(ss.latMS, 0.95), "ms"}
	m["serve_ok_frac"] = metric{ok, "frac"}
}

func (ss *serveStats) layerMetrics(m map[string]metric) {
	sp50 := histQuantile(ss.scraped, 0.50)
	lines := func(outcome string) float64 {
		return ss.scraped[`optchain_serve_lines_total{outcome="`+outcome+`"}`]
	}
	var snapP50, snapMax float64 // 0 when the phase was too short for a call
	if len(ss.snapMS) > 0 {
		snapP50, snapMax = median(ss.snapMS), quantile(ss.snapMS, 1)
	}
	m["snapshot.serve_call_ms_p50"] = metric{snapP50, "ms"}
	m["snapshot.serve_call_ms_max"] = metric{snapMax, "ms"}
	m["snapshot.serve_count"] = metric{float64(len(ss.snapMS)), "count"}
	m["serve.server_p50_ms"] = metric{sp50, "ms"}
	m["serve.server_p99_ms"] = metric{histQuantile(ss.scraped, 0.99), "ms"}
	m["serve.client_p99_ms"] = metric{quantile(ss.latMS, 0.99), "ms"}
	m["serve.window_p50_ms"] = metric{quantile(ss.latMS, 0.50) - sp50, "ms"}
	m["serve.txs_per_batch"] = metric{ss.scraped["optchain_serve_batched_txs_total"] / ss.scraped["optchain_serve_batches_total"], "tx"}
	m["serve.rejected"] = metric{lines("rejected"), "count"}
	m["serve.expired"] = metric{lines("expired"), "count"}
	m["serve.invalid"] = metric{lines("invalid"), "count"}
	m["serve.server_cpu_ms_per_ktx"] = metric{float64(ss.cpuTick) * 1000 / clockTicksPerSec / (float64(ss.n) / 1000), "ms"}
	m["serve.gen_lag_p99_ms"] = metric{quantile(ss.lagMS, 0.99), "ms"}
}
