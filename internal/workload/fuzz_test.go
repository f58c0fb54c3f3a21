package workload

import (
	"errors"
	"testing"
)

// FuzzParse proves the spec decoder is total: on arbitrary input, Parse and
// SplitList either succeed or fail with an error wrapping ErrBadParam or
// ErrUnknownWorkload — never an untyped error, never a panic. Accepted
// specs name a registered scenario, and every accepted list entry parses.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"bitcoin",
		"hotspot:exp=1.5,wallets=5000",
		"mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1",
		"mix:(hotspot:exp=1.5)=0.5,(mix:bitcoin=0.5,drift=0.5)=0.5",
		"replay:trace.tan,mod=(burst:boost=4)",
		"mix:bitcoin=0.7,hotspot=0.3;adversarial",
		"mix:(replay:a;b.tan)=1;",
		"(bitcoin)",
		"((",
		"))",
		"hotspot:=2",
		"hotspot:exp=,",
		"",
		";",
		":",
	} {
		f.Add(s)
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrBadParam) || errors.Is(err, ErrUnknownWorkload)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil && !typed(err) {
			t.Fatalf("Parse(%q): untyped error %v", s, err)
		}
		if err == nil && !Has(spec.Name) {
			t.Fatalf("Parse(%q) accepted unregistered scenario %q", s, spec.Name)
		}
		list, err := SplitList(s)
		if err != nil && !typed(err) {
			t.Fatalf("SplitList(%q): untyped error %v", s, err)
		}
		for _, e := range list {
			if _, err := Parse(e); err != nil {
				t.Fatalf("SplitList(%q) returned entry %q that does not parse: %v", s, e, err)
			}
		}
	})
}
