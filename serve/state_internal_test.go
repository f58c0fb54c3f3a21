package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"optchain"
)

// fuzzEngine builds the small engine every FuzzLoadState input restores
// into.
func fuzzEngine(t testing.TB) *optchain.Engine {
	t.Helper()
	e, err := optchain.New(
		optchain.WithShards(4),
		optchain.WithStrategy("OptChain"),
		optchain.WithStreamCapacity(64),
		optchain.WithSeed(1),
	)
	if err != nil {
		t.Fatalf("New engine: %v", err)
	}
	return e
}

// stateFileAfter runs a server over a fresh engine, places n chained
// requests (every third without an id), closes it, and returns the state
// file its final snapshot wrote.
func stateFileAfter(t testing.TB, n int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.bin")
	s, err := New(Config{Engine: fuzzEngine(t), StatePath: path, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for i := range n {
		req := Request{Outputs: 2}
		if i%3 != 2 {
			req.ID = "t" + strconv.Itoa(i)
		}
		if i > 0 {
			req.Inputs = []int{i - 1}
		}
		if _, err := s.Place(ctx, req); err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read state: %v", err)
	}
	return data
}

// restoreInto decodes data into a fresh server that runs no goroutines.
func restoreInto(t *testing.T, data []byte) (*Server, error) {
	s := &Server{eng: fuzzEngine(t), met: newMetrics(), ids: make(map[string]int)}
	err := s.decodeState("fuzz", data)
	s.nextIndex = s.eng.Stats().Placed
	return s, err
}

// FuzzLoadState feeds arbitrary bytes to the state-file decoder: every
// input must restore or fail with ErrBadState, never panic. fixCRC
// recomputes the trailing checksum so mutations reach the decoder behind
// it. A restored state must re-encode to a file that restores to the same
// encoding.
func FuzzLoadState(f *testing.F) {
	for _, n := range []int{0, 1, 6} {
		data := stateFileAfter(f, n)
		f.Add(data, false)
		f.Add(data[:len(data)-4], true)
	}
	f.Add([]byte(stateMagic), true)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC {
			body := bytes.Clone(data)
			data = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		}
		s, err := restoreInto(t, data)
		if err != nil {
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		img, err := s.captureState()
		if err != nil {
			t.Fatalf("capture after restore: %v", err)
		}
		again := img.encode()
		s2, err := restoreInto(t, again)
		if err != nil {
			t.Fatalf("re-encoded state does not restore: %v", err)
		}
		img2, err := s2.captureState()
		if err != nil {
			t.Fatalf("capture after second restore: %v", err)
		}
		if !bytes.Equal(img2.encode(), again) {
			t.Fatal("re-encoded state is not a fixed point of restore")
		}
	})
}
