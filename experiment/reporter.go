package experiment

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"optchain/internal/names"
)

// Reporter is a sweep result sink. The Runner drives it through Report:
// Begin once, Row per result in canonical order as cells complete, End
// once — including after a failure or cancellation, so partial output is
// flushed rather than lost.
//
// Implementations need not be safe for concurrent use; the Runner
// serializes calls.
type Reporter interface {
	// Begin observes the sweep definition before any row.
	Begin(s Sweep, p Params) error
	// Row observes one completed result row.
	Row(r Row) error
	// End flushes. It is called exactly once, even on failure paths.
	End() error
}

// ReporterFactory builds a reporter writing to w. opts carries the
// reporter's knobs (from a "name:key=value,..." spec); factories MUST
// reject unknown keys with an error wrapping ErrBadReporterOption, so
// misspelled knobs fail instead of being silently inert.
type ReporterFactory func(w io.Writer, opts map[string]string) (Reporter, error)

var reporters names.Table[ReporterFactory]

// RegisterReporter adds a reporter to the open registry under the given
// case-insensitive name, making it selectable everywhere a reporter name
// is accepted (NewReporter, cmd/optchain-bench -reporter). Registering a
// duplicate or empty name, or a nil factory, returns an error wrapping
// ErrBadRegistration — the same rules as optchain.RegisterStrategy.
func RegisterReporter(name string, f ReporterFactory) error {
	if f == nil {
		return fmt.Errorf("%w: nil reporter factory for %q", ErrBadRegistration, name)
	}
	if err := reporters.Register(name, f); err != nil {
		return fmt.Errorf("%w: reporter: %w", ErrBadRegistration, err)
	}
	return nil
}

// mustRegisterReporter registers a built-in; failure is a programming error.
func mustRegisterReporter(name string, f ReporterFactory) {
	if err := RegisterReporter(name, f); err != nil {
		panic(err)
	}
}

// Reporters enumerates the registered reporter names, sorted.
func Reporters() []string { return reporters.Names(nil) }

// HasReporter reports whether name resolves to a registered reporter.
func HasReporter(name string) bool {
	_, ok := reporters.Lookup(name)
	return ok
}

// ParseReporterSpec splits a reporter spec "name[:key=value,...]" into the
// registry name and its option map. The name is validated against the
// registry and a repeated option key fails with ErrBadReporterOption;
// option keys are otherwise validated later, by the named factory.
func ParseReporterSpec(spec string) (string, map[string]string, error) {
	s := strings.TrimSpace(spec)
	name, rest, found := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("%w: empty reporter spec", ErrUnknownReporter)
	}
	if !HasReporter(name) {
		return "", nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownReporter, name, strings.Join(Reporters(), ", "))
	}
	var opts map[string]string
	if found && strings.TrimSpace(rest) != "" {
		opts = make(map[string]string)
		for _, tok := range strings.Split(rest, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			k, v, ok := strings.Cut(tok, "=")
			if !ok || strings.TrimSpace(k) == "" {
				return "", nil, fmt.Errorf("%w: reporter %q option %q is not key=value",
					ErrBadReporterOption, name, tok)
			}
			k = strings.TrimSpace(k)
			if _, dup := opts[k]; dup {
				return "", nil, fmt.Errorf("%w: reporter %q repeats option %q",
					ErrBadReporterOption, name, k)
			}
			opts[k] = strings.TrimSpace(v)
		}
	}
	return name, opts, nil
}

// NewReporter builds a registered reporter from a spec ("jsonl",
// "csv:header=off") writing to w. Unknown names list the registry; unknown
// option keys fail with ErrBadReporterOption.
func NewReporter(spec string, w io.Writer) (Reporter, error) {
	name, opts, err := ParseReporterSpec(spec)
	if err != nil {
		return nil, err
	}
	f, _ := reporters.Lookup(name)
	return f(w, opts)
}

// checkReporterOpts rejects option keys outside the reporter's allowed set.
// Unknown keys are collected and sorted so the error text is identical
// regardless of map iteration order.
func checkReporterOpts(reporter string, opts map[string]string, allowed ...string) error {
	var unknown []string
	for k := range opts {
		if !slices.Contains(allowed, k) {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		sort.Strings(allowed)
		have := "it takes none"
		if len(allowed) > 0 {
			have = "it takes: " + strings.Join(allowed, ", ")
		}
		return fmt.Errorf("%w: reporter %q has no option %q (%s)",
			ErrBadReporterOption, reporter, unknown[0], have)
	}
	return nil
}
