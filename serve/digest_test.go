package serve_test

import (
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"optchain/serve"
)

// stateFileDigest is the FNV-64a digest of the state file that
// TestStateFileDigest's fixed request sequence leaves behind. The state
// file format is a compatibility contract: a restarted router must read
// files its predecessor wrote, so a change here means the encoding
// changed. Never regenerate it to make a change pass.
const stateFileDigest uint64 = 0xd9e9eae89df1fce7

// TestStateFileDigest pins the state file byte for byte: a fixed sequence
// of placements — parent-id references, absolute inputs without ids, and a
// rejected duplicate id — then Close's final snapshot.
func TestStateFileDigest(t *testing.T) {
	const n = 600
	txs := mixStream(t, n)
	statePath := filepath.Join(t.TempDir(), "state.bin")
	s, ts := newServer(t, serve.Config{Engine: newEngine(t, n+16), StatePath: statePath, SnapshotEvery: -1})

	// Lines [anonFrom, anonTo) carry no id: they reference their inputs by
	// absolute position, leaving gaps in the id map; every other line names
	// its parents by id where the parent has one.
	const anonFrom, anonTo = n / 2, n/2 + 40
	var lines []string
	for i := range n {
		if i == anonTo {
			lines = append(lines, reqLine(t, serve.Request{ID: "t0", Outputs: 1})) // duplicate id: rejected
		}
		req := serve.Request{Outputs: txs[i].Outputs}
		if i < anonFrom || i >= anonTo {
			req.ID = "t" + itoa(i)
		}
		for _, in := range txs[i].Inputs {
			if in >= anonFrom && in < anonTo {
				req.Inputs = append(req.Inputs, in)
			} else {
				req.Parents = append(req.Parents, "t"+itoa(in))
			}
		}
		lines = append(lines, reqLine(t, req))
	}
	resp, out := postLines(t, ts, lines)
	if resp.StatusCode != http.StatusOK || len(out) != len(lines) {
		t.Fatalf("place: status %d, %d of %d lines", resp.StatusCode, len(out), len(lines))
	}
	for i, r := range out {
		if (r.Error != "") != (i == anonTo) {
			t.Fatalf("line %d: %+v; only the duplicate id may fail", i, r)
		}
	}
	closeServer(t, s)

	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("read state: %v", err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got := h.Sum64(); got != stateFileDigest {
		t.Fatalf("state file digest %#x (%d bytes), want %#x", got, len(data), stateFileDigest)
	}
}
