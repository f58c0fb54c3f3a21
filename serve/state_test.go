package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"optchain"
	"optchain/serve"
)

// mixStream materializes the standard mixed workload as absolute-position
// StreamTx values.
func mixStream(t *testing.T, n int) []optchain.StreamTx {
	t.Helper()
	d, err := optchain.MaterializeWorkload(
		"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15",
		optchain.WorkloadParams{N: n, Seed: 7, Shards: testShards})
	if err != nil {
		t.Fatalf("materialize workload: %v", err)
	}
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		ins := make([]int, len(tx.Inputs))
		copy(ins, tx.Inputs)
		txs = append(txs, optchain.StreamTx{Inputs: ins, Outputs: tx.Outputs})
	}
	if len(txs) != n {
		t.Fatalf("materialized %d txs, want %d", len(txs), n)
	}
	return txs
}

// asLines renders txs[from:to] as /v1/place JSON lines that reference every
// input through its parent id ("t<position>"), so the requests exercise the
// id map rather than absolute positions.
func asLines(txs []optchain.StreamTx, from, to int) []string {
	lines := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		req := serve.Request{ID: "t" + itoa(i), Outputs: txs[i].Outputs}
		for _, in := range txs[i].Inputs {
			req.Parents = append(req.Parents, "t"+itoa(in))
		}
		b, _ := json.Marshal(req) // a Request always marshals
		lines = append(lines, string(b))
	}
	return lines
}

func itoa(i int) string { return strconv.Itoa(i) }

// TestStateRoundTripOverHTTP is the serving-layer restore-fidelity proof: a
// reference engine places the whole stream directly; a server places the
// first half over HTTP (parent-id references only) and shuts down, writing
// its final snapshot; a fresh server restores the file and places the
// second half over HTTP — whose parents name first-half ids, proving the id
// map survives the restart. Every decision must equal the uninterrupted
// reference run's.
func TestStateRoundTripOverHTTP(t *testing.T) {
	const n = 1200
	half := n / 2
	txs := mixStream(t, n)
	statePath := filepath.Join(t.TempDir(), "state.bin")

	ref := newEngine(t, n)
	want, err := ref.PlaceBatch(txs, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	engA := newEngine(t, n)
	srvA, err := serve.New(serve.Config{Engine: engA, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("serve.New A: %v", err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	resp, out := postLines(t, tsA, asLines(txs, 0, half))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("A place: status %d", resp.StatusCode)
	}
	if len(out) != half {
		t.Fatalf("A answered %d lines, want %d", len(out), half)
	}
	for i, r := range out {
		if r.Error != "" {
			t.Fatalf("A line %d: %+v", i, r)
		}
		if r.Index != i || r.Shard != want[i] {
			t.Fatalf("A line %d placed (index %d, shard %d), reference says (index %d, shard %d)",
				i, r.Index, r.Shard, i, want[i])
		}
	}
	tsA.Close()
	closeServer(t, srvA) // final snapshot
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("Close wrote no state file: %v", err)
	}

	engB := newEngine(t, n)
	srvB, err := serve.New(serve.Config{Engine: engB, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("serve.New B (restore): %v", err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	if placed := engB.Stats().Placed; placed != half {
		t.Fatalf("restored engine has %d placements, want %d", placed, half)
	}
	resp, out = postLines(t, tsB, asLines(txs, half, n))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B place: status %d", resp.StatusCode)
	}
	if len(out) != n-half {
		t.Fatalf("B answered %d lines, want %d", len(out), n-half)
	}
	for i, r := range out {
		pos := half + i
		if r.Error != "" {
			t.Fatalf("B line %d (stream %d): %+v — restored server must resolve first-half parent ids", i, pos, r)
		}
		if r.Index != pos || r.Shard != want[pos] {
			t.Fatalf("restored server diverges at stream %d: placed (index %d, shard %d), uninterrupted run chose shard %d",
				pos, r.Index, r.Shard, want[pos])
		}
	}
	closeServer(t, srvB)

	refStats, bStats := ref.Stats(), engB.Stats()
	if refStats.Placed != bStats.Placed || refStats.Cross != bStats.Cross {
		t.Fatalf("final stats diverge: reference %+v, restored %+v", refStats, bStats)
	}
}

// TestSnapshotEndpointAndPeriodic: POST /v1/snapshot writes a loadable
// file immediately; the periodic snapshotter refreshes it on its own.
func TestSnapshotEndpointAndPeriodic(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.bin")
	s, ts := newServer(t, serve.Config{
		Engine:        newEngine(t, 4096),
		StatePath:     statePath,
		SnapshotEvery: 20 * time.Millisecond,
	})
	if _, out := postLines(t, ts, asLines(mixStream(t, 50), 0, 50)); len(out) != 50 {
		t.Fatalf("place: %d lines", len(out))
	}
	resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /v1/snapshot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/snapshot: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("on-demand snapshot missing: %v", err)
	}

	// The periodic snapshotter must write on its own cadence too.
	if err := os.Remove(statePath); err != nil {
		t.Fatalf("remove: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(statePath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshotter never rewrote the state file")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the file must actually restore.
	closeServer(t, s)
	restored, err := serve.New(serve.Config{Engine: newEngine(t, 4096), StatePath: statePath})
	if err != nil {
		t.Fatalf("restore from periodic snapshot: %v", err)
	}
	if placed := restored.Engine().Stats().Placed; placed != 50 {
		t.Fatalf("restored %d placements, want 50", placed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	restored.Close(ctx)
}

// TestStateFileDefects: corrupt or incompatible state files must refuse to
// start the server rather than silently cold-starting mid-stream.
func TestStateFileDefects(t *testing.T) {
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.bin")
	s, ts := newServer(t, serve.Config{Engine: newEngine(t, 4096), StatePath: goodPath})
	if _, out := postLines(t, ts, asLines(mixStream(t, 20), 0, 20)); len(out) != 20 {
		t.Fatalf("place: %d lines", len(out))
	}
	closeServer(t, s)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatalf("read state: %v", err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20
	cases := map[string][]byte{
		"garbage":   []byte("definitely not a state file"),
		"truncated": good[:len(good)-8],
		"flipped":   flipped,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".bin")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := serve.New(serve.Config{Engine: newEngine(t, 4096), StatePath: p}); !errors.Is(err, serve.ErrBadState) {
				t.Fatalf("defective state (%s): err=%v, want ErrBadState", name, err)
			}
		})
	}

	// A fingerprint mismatch (different shard count) is also ErrBadState.
	t.Run("mismatched engine", func(t *testing.T) {
		e, err := optchain.New(
			optchain.WithShards(testShards/2),
			optchain.WithStrategy("OptChain"),
			optchain.WithStreamCapacity(4096),
			optchain.WithSeed(1),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := serve.New(serve.Config{Engine: e, StatePath: goodPath}); !errors.Is(err, serve.ErrBadState) {
			t.Fatalf("mismatched engine: err=%v, want ErrBadState", err)
		}
	})

	// A missing file is a clean cold start, not an error.
	t.Run("missing file", func(t *testing.T) {
		s, err := serve.New(serve.Config{Engine: newEngine(t, 4096), StatePath: filepath.Join(dir, "absent.bin")})
		if err != nil {
			t.Fatalf("cold start: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
}

// TestSnapshotFailuresCountedOnce points StatePath into a directory that
// is moved away after New, so every periodic, on-demand and shutdown snapshot
// fails: the error counter must grow by exactly one per failed attempt.
// Every attempt holds the dispatcher once, so attempts are the hold count.
func TestSnapshotFailuresCountedOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	s, ts := newServer(t, serve.Config{
		Engine:        newEngine(t, 4096),
		StatePath:     filepath.Join(dir, "state.bin"),
		SnapshotEvery: 5 * time.Millisecond,
	})
	if _, out := postLines(t, ts, asLines(mixStream(t, 50), 0, 50)); len(out) != 50 {
		t.Fatalf("place: %d lines", len(out))
	}
	// Rename rather than remove: a periodic snapshot may be creating its
	// temp file in there right now.
	if err := os.Rename(dir, dir+".gone"); err != nil {
		t.Fatalf("remove state dir: %v", err)
	}
	const onDemand = 3
	for i := range onDemand {
		resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", nil)
		if err != nil {
			t.Fatalf("POST /v1/snapshot: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("snapshot %d into a removed directory succeeded", i)
		}
	}
	// Let the periodic snapshotter fail a few times too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := scrapeMetric(t, ts, "optchain_serve_snapshot_hold_seconds_count"); v >= onDemand+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshots never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, serve.ErrBadState) {
		t.Fatalf("Close with a removed state directory: %v, want ErrBadState", err)
	}

	attempts, _ := scrapeMetric(t, ts, "optchain_serve_snapshot_hold_seconds_count")
	written, _ := scrapeMetric(t, ts, "optchain_serve_snapshots_total")
	failed, _ := scrapeMetric(t, ts, "optchain_serve_snapshot_errors_total")
	if failed != attempts-written {
		t.Fatalf("snapshot errors %g after %g attempts of which %g were written; want one count per failed attempt", failed, attempts, written)
	}
	if failed < onDemand+1 {
		t.Fatalf("snapshot errors %g, want at least the %d on-demand and the shutdown failures", failed, onDemand)
	}
}

// TestSnapshotWriteOrder interleaves placements, back-to-back
// /v1/snapshot calls and Close, then restores: the file must hold the
// final stream — every placement and every answered id — never an earlier
// snapshot whose write finished late. Run under -race in CI.
func TestSnapshotWriteOrder(t *testing.T) {
	const (
		n      = 2000
		bodies = 40
	)
	txs := mixStream(t, n)
	statePath := filepath.Join(t.TempDir(), "state.bin")
	s, ts := newServer(t, serve.Config{
		Engine:        newEngine(t, n),
		MaxBatch:      8,
		StatePath:     statePath,
		SnapshotEvery: time.Millisecond,
	})

	// The placer streams the workload body after body until Close cuts it
	// off, recording every id answered with a decision.
	placed := make(map[string]int) // written by the placer, read after placing is done
	var workers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		per := n / bodies
		for b := range bodies {
			body := strings.Join(asLines(txs, b*per, (b+1)*per), "\n")
			resp, err := http.Post(ts.URL+"/v1/place", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				return
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var r resLine
				if json.Unmarshal(sc.Bytes(), &r) == nil && r.Error == "" {
					placed[r.ID] = r.Index
				}
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
		}
	}()
	// Back-to-back snapshot callers keep captures of older states in
	// flight when Close arrives.
	for range 2 {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", nil)
				if err != nil {
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return // closed
				}
			}
		}()
	}
	for s.Engine().Stats().Placed < n/4 {
		time.Sleep(time.Millisecond)
	}
	closeServer(t, s)
	workers.Wait()
	final := s.Engine().Stats().Placed

	restored, err := serve.New(serve.Config{Engine: newEngine(t, n+1), StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer closeServer(t, restored)
	if got := restored.Engine().Stats().Placed; got != final {
		t.Fatalf("restored %d placements, want the final %d", got, final)
	}
	if len(placed) != final {
		t.Fatalf("%d lines answered with a decision, engine placed %d", len(placed), final)
	}
	// Re-registering every answered id must fail naming its original
	// position, which reads the restored id map back.
	rts := httptest.NewServer(restored.Handler())
	defer rts.Close()
	var ids []string
	for id := range placed {
		ids = append(ids, id)
	}
	lines := make([]string, len(ids))
	for i, id := range ids {
		lines[i] = reqLine(t, serve.Request{ID: id, Outputs: 1})
	}
	_, out := postLines(t, rts, lines)
	if len(out) != len(ids) {
		t.Fatalf("%d answers, want %d", len(out), len(ids))
	}
	for i, r := range out {
		want := fmt.Sprintf("already names stream position %d", placed[ids[i]])
		if !strings.Contains(r.Error, want) {
			t.Fatalf("id %s after restore: %+v, want %q", ids[i], r, want)
		}
	}
}
