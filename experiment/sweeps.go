package experiment

import (
	"fmt"
	"strings"

	"optchain/internal/names"
)

// SweepBuilder materializes a named sweep definition against the
// parameters it will run under (grids shrink under Params.Quick, strategy
// axes default from Params.Strategies, and so on).
type SweepBuilder func(p Params) (Sweep, error)

type sweepEntry struct {
	description string
	build       SweepBuilder
}

var sweeps names.Table[sweepEntry]

// RegisterSweep adds a named sweep definition to the open registry, making
// it selectable from cmd/optchain-bench -sweep (and enumerable with
// -list-sweeps). internal/bench registers the paper's grids; externally
// defined sweeps register here exactly like built-ins. The same naming
// rules as RegisterReporter apply.
func RegisterSweep(name, description string, build SweepBuilder) error {
	if build == nil {
		return fmt.Errorf("%w: nil sweep builder for %q", ErrBadRegistration, name)
	}
	if err := sweeps.Register(name, sweepEntry{description: description, build: build}); err != nil {
		return fmt.Errorf("%w: sweep: %w", ErrBadRegistration, err)
	}
	return nil
}

// MustRegisterSweep registers a built-in; failure is a programming error.
func MustRegisterSweep(name, description string, build SweepBuilder) {
	if err := RegisterSweep(name, description, build); err != nil {
		panic(err) //optchain:fatal duplicate built-in registration is a programmer error caught at init
	}
}

// SweepNames enumerates the registered sweep names, sorted.
func SweepNames() []string { return sweeps.Names(nil) }

// SweepDescription returns the registered one-line description for name
// ("" when unknown).
func SweepDescription(name string) string {
	e, _ := sweeps.Lookup(name)
	return e.description
}

// HasSweep reports whether name resolves to a registered sweep.
func HasSweep(name string) bool {
	_, ok := sweeps.Lookup(name)
	return ok
}

// BuildSweep materializes the named sweep against p. Unknown names list
// the registry.
func BuildSweep(name string, p Params) (Sweep, error) {
	e, ok := sweeps.Lookup(name)
	if !ok {
		return Sweep{}, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownSweep, name, strings.Join(SweepNames(), ", "))
	}
	p.fillDefaults()
	return e.build(p)
}
