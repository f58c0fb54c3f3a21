package experiment

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzDiffRows fuzzes the two row decoders behind the quality gate —
// DecodeRows (jsonl / row-cache / baseline forms) and the cache loader —
// with arbitrary bytes. The contract under fuzzing: never panic, and every
// accepted input decodes to rows with non-empty unique cell IDs; everything
// else fails with ErrBadCache. Wired into `make fuzz-smoke`.
func FuzzDiffRows(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"id\":\"a\",\"kind\":\"sim\",\"steady_tps\":100,\"cross_fraction\":0.5,\"wall_seconds\":1,\"streamed\":false}\n"))
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"b\"}\n"))
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"a\"}\n")) // duplicate cell IDs
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v1\",\"seed\":1,\"validators\":4}\n{\"id\":\"a\",\"wall_seconds\":0}\n"))
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v0\"}\n"))                                                // stale cache schema
	f.Add([]byte("{\"schema\":\"" + BaselineSchema + "\",\"sim\":[{\"cell_id\":\"a\",\"steady_tps\":1}]}")) // current baseline
	f.Add([]byte("{\"schema\":\"optchain-bench-baseline/v3\",\"sim\":[]}"))                                 // mixed/stale baseline schema
	f.Add([]byte("{\"id\":\"a\",\"steady_tps\":"))                                                          // truncated mid-value
	f.Add([]byte("{\"id\":\"a\"}\ngarbage"))
	f.Add([]byte("null\n{\"id\":\"a\"}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRows(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCache) {
				t.Fatalf("DecodeRows error outside ErrBadCache: %v", err)
			}
		} else {
			seen := map[string]bool{}
			for i, r := range rows {
				if r.ID == "" {
					t.Fatalf("accepted row %d has no cell ID", i)
				}
				if seen[r.ID] {
					t.Fatalf("accepted duplicate cell %q", r.ID)
				}
				seen[r.ID] = true
			}
		}

		want := newCacheHeader(Params{Seed: 1, Validators: 4})
		if _, err := loadCacheRows(strings.NewReader(string(data)), want); err != nil && !errors.Is(err, ErrBadCache) {
			t.Fatalf("loadCacheRows error outside ErrBadCache: %v", err)
		}
	})
}

// FuzzParseReporterSpec fuzzes the reporter spec decoder behind
// cmd/optchain-bench -reporter. The contract under fuzzing: never panic,
// fail only with ErrUnknownReporter or ErrBadReporterOption, and on success
// name a registered reporter with non-empty option keys. Wired into `make
// fuzz-smoke`.
func FuzzParseReporterSpec(f *testing.F) {
	for _, s := range []string{
		"text",
		"jsonl",
		"csv:header=off",
		" CSV : header = off ",
		"baseline:stamp=off",
		"diff:old=rows.jsonl,tps=0.05",
		"csv:header=on,header=off",
		"csv:,,header=off,",
		"csv:=off",
		"csv:header",
		"nope:x=1",
		":",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, opts, err := ParseReporterSpec(spec)
		if err != nil {
			if !errors.Is(err, ErrUnknownReporter) && !errors.Is(err, ErrBadReporterOption) {
				t.Fatalf("ParseReporterSpec(%q): untyped error %v", spec, err)
			}
			return
		}
		if !HasReporter(name) {
			t.Fatalf("ParseReporterSpec(%q) accepted unregistered reporter %q", spec, name)
		}
		for k := range opts {
			if k == "" {
				t.Fatalf("ParseReporterSpec(%q) accepted an empty option key", spec)
			}
		}
	})
}
