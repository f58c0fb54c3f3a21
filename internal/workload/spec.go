package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is the parsed form of a workload spec string — the grammar every
// -workload flag, WithWorkload, and New accept (EBNF in SCENARIOS.md):
//
//	spec  = name , [ ":" , arg , { "," , arg } ] ;
//	arg   = [ key , "=" ] , value ;
//	value = number | "(" , spec , ")" | word ;
//
// Commas and "=" nested inside parentheses belong to the inner spec, so
// composite scenarios compose recursively: a mix of a mix is legal. A key
// may appear only once per level; positional arguments carry no key.
//
//	hotspot:exp=1.5,wallets=5000
//	mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1
//	mix:(hotspot:exp=1.5)=0.5,(mix:bitcoin=0.5,drift=0.5)=0.5
//	replay:trace.tan,mod=(burst:boost=4)
//
// Numeric key=value arguments are mirrored into Knobs (the map plain
// generators consume); every argument is additionally kept, in spec order,
// in Args — composite scenarios (mix, replay) read their components, trace
// paths, and modulator specs from there.
type Spec struct {
	// Name is the registered scenario name (validated by Parse).
	Name string
	// Knobs holds the numeric name=value arguments.
	Knobs map[string]float64
	// Args holds every argument in spec order, including the ones mirrored
	// into Knobs.
	Args []Arg
}

// Arg is one argument of a parsed spec. Key is empty for positional
// arguments (replay's trace path). One layer of parentheses is stripped
// from both Key and Value, so a parenthesized component spec arrives ready
// to parse recursively.
type Arg struct {
	Key   string
	Value string
	// Num is the parsed Value when IsNum.
	Num   float64
	IsNum bool
}

// simpleKey reports whether k can act as a plain knob name (no nested-spec
// structure).
func simpleKey(k string) bool {
	return k != "" && !strings.ContainsAny(k, ":(),=")
}

// stripParens removes one balanced outer layer of parentheses.
func stripParens(s string) string {
	if len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
		depth := 0
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 && i != len(s)-1 {
					return s // the opening paren closes early: not one layer
				}
			}
		}
		if depth == 0 {
			return strings.TrimSpace(s[1 : len(s)-1])
		}
	}
	return s
}

// splitTop splits s at top-level (paren depth 0) occurrences of sep.
func splitTop(s string, sep byte) ([]string, error) {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced ')' in %q", s)
			}
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced '(' in %q", s)
	}
	return append(out, s[start:]), nil
}

// cutTopEq cuts tok at its first top-level "=".
func cutTopEq(tok string) (key, val string, found bool) {
	depth := 0
	for i := 0; i < len(tok); i++ {
		switch tok[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '=':
			if depth == 0 {
				return tok[:i], tok[i+1:], true
			}
		}
	}
	return tok, "", false
}

// SplitList splits a list of workload specs into its entries, sharing the
// spec grammar's paren-aware tokenizer: entries are ','-separated, or
// ';'-separated when the list contains a top-level ';' (the documented way
// to list specs that themselves contain commas, e.g.
// "mix:bitcoin=0.7,hotspot=0.3;adversarial"; a trailing ';' forces that
// mode for a single spec). Separators nested inside parentheses belong to
// the inner spec — "mix:(replay:a;b.tan)=1" is one entry — so composite
// specs are never split mid-spec. Every entry is validated with Parse; a
// failure names the offending fragment.
func SplitList(list string) ([]string, error) {
	frags, err := splitTop(list, ';')
	if err != nil {
		return nil, fmt.Errorf("%w: workload list %q: %v", ErrBadParam, list, err)
	}
	semi := len(frags) > 1
	if !semi {
		frags, _ = splitTop(list, ',') // balance already checked above
		if len(frags) > 1 {
			// Ambiguity guard: when the WHOLE list also parses as one valid
			// spec ("mix:bitcoin=0.7,hotspot"), comma-splitting could
			// silently run different workloads than the user meant — every
			// fragment may parse too. Demand an explicit ';' either way.
			if _, err := Parse(list); err == nil {
				return nil, fmt.Errorf("%w: ambiguous workload list %q: it parses as ONE spec but contains top-level commas; use ';' separators between entries, or a trailing ';' for a single spec",
					ErrBadParam, list)
			}
		}
	}
	var out []string
	for _, f := range frags {
		f = strings.TrimSpace(f)
		if f == "" {
			// A trailing ';' is the documented way to force ';'-mode for a
			// single comma-bearing spec; blanks are not entries.
			continue
		}
		if _, err := Parse(f); err != nil {
			hint := ""
			if !semi && strings.Contains(list, ",") {
				hint = "; separate entries with ';' when a spec contains top-level commas"
			}
			return nil, fmt.Errorf("workload list: fragment %q: %w%s", f, err, hint)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: workload list %q has no entries", ErrBadParam, list)
	}
	return out, nil
}

// Parse parses a workload spec string and validates its scenario name
// against the registry: an unknown name fails with an error wrapping
// ErrUnknownWorkload that names the offending token and lists every
// registered scenario. Argument values that don't fit a scenario surface
// later, when the named factory consumes the Spec.
func Parse(spec string) (Spec, error) {
	s := strings.TrimSpace(spec)
	s = stripParens(s)
	if s == "" {
		return Spec{}, fmt.Errorf("%w: empty workload spec", ErrBadParam)
	}
	name, rest, found := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Spec{}, fmt.Errorf("%w: spec %q has no scenario name", ErrBadParam, spec)
	}
	if !Has(name) {
		return Spec{}, fmt.Errorf("%w %q in spec %q (registered scenarios: %s)",
			ErrUnknownWorkload, name, spec, strings.Join(Names(), ", "))
	}
	out := Spec{Name: name}
	if !found || strings.TrimSpace(rest) == "" {
		return out, nil
	}
	toks, err := splitTop(rest, ',')
	if err != nil {
		return Spec{}, fmt.Errorf("%w: spec %q: %v", ErrBadParam, spec, err)
	}
	for _, tok := range toks {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return Spec{}, fmt.Errorf("%w: spec %q has an empty argument", ErrBadParam, spec)
		}
		key, val, hasEq := cutTopEq(tok)
		a := Arg{}
		if hasEq {
			a.Key = stripParens(strings.TrimSpace(key))
			a.Value = stripParens(strings.TrimSpace(val))
			if a.Key == "" {
				return Spec{}, fmt.Errorf("%w: argument %q in spec %q has an empty name", ErrBadParam, tok, spec)
			}
			if a.Value == "" {
				return Spec{}, fmt.Errorf("%w: argument %q in spec %q has an empty value", ErrBadParam, tok, spec)
			}
			for _, prev := range out.Args {
				if prev.Key == a.Key {
					return Spec{}, fmt.Errorf("%w: spec %q repeats argument %q", ErrBadParam, spec, a.Key)
				}
			}
		} else {
			a.Value = stripParens(tok)
		}
		if x, err := strconv.ParseFloat(a.Value, 64); err == nil {
			a.Num, a.IsNum = x, true
			if simpleKey(a.Key) {
				if out.Knobs == nil {
					out.Knobs = make(map[string]float64)
				}
				out.Knobs[a.Key] = x
			}
		}
		out.Args = append(out.Args, a)
	}
	return out, nil
}
