// Package names is the one name-indexed table behind every open registry in
// the module: placement strategies and commit protocols (internal/registry),
// workload scenarios (internal/workload), and reporters and sweeps
// (experiment). Names are trimmed and matched case-insensitively; each
// entry keeps the display spelling it was registered under, which is what
// Names enumerates.
package names

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registration errors shared by every registry. Callers match them with
// errors.Is.
var (
	// ErrEmptyName is returned when registering a blank name.
	ErrEmptyName = errors.New("empty registration name")
	// ErrDuplicateName is returned when registering a name that is already
	// taken under any letter case.
	ErrDuplicateName = errors.New("name already registered")
)

// Table maps case-insensitive names to entries of type E. The zero value is
// empty and ready to use; a Table is safe for concurrent use.
type Table[E any] struct {
	mu      sync.RWMutex
	entries map[string]item[E] // keyed by the trimmed, lower-cased name
}

type item[E any] struct {
	display string
	entry   E
}

func key(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Register adds e under name. A blank name fails with ErrEmptyName; a name
// already taken fails with an error wrapping ErrDuplicateName that quotes
// the first registration's display name.
func (t *Table[E]) Register(name string, e E) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return ErrEmptyName
	}
	k := strings.ToLower(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.entries[k]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateName, prev.display)
	}
	if t.entries == nil {
		t.entries = make(map[string]item[E])
	}
	t.entries[k] = item[E]{display: name, entry: e}
	return nil
}

// Lookup returns the entry registered under name, trimmed and matched
// case-insensitively.
func (t *Table[E]) Lookup(name string) (E, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	it, ok := t.entries[key(name)]
	return it.entry, ok
}

// Names returns the display names of the entries keep accepts (every entry
// when keep is nil), sorted.
func (t *Table[E]) Names(keep func(E) bool) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.entries))
	for _, it := range t.entries {
		if keep == nil || keep(it.entry) {
			out = append(out, it.display)
		}
	}
	sort.Strings(out)
	return out
}
