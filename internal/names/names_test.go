package names

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRegisterRejectsBlankNames(t *testing.T) {
	var tab Table[int]
	for _, name := range []string{"", " ", "\t\n "} {
		if err := tab.Register(name, 1); !errors.Is(err, ErrEmptyName) {
			t.Errorf("Register(%q) = %v, want ErrEmptyName", name, err)
		}
	}
	if got := tab.Names(nil); len(got) != 0 {
		t.Fatalf("blank registrations left entries: %v", got)
	}
}

func TestRegisterDuplicateReportsFirstDisplayName(t *testing.T) {
	var tab Table[int]
	if err := tab.Register("OptChain", 1); err != nil {
		t.Fatal(err)
	}
	for _, dup := range []string{"OptChain", "optchain", " OPTCHAIN "} {
		err := tab.Register(dup, 2)
		if !errors.Is(err, ErrDuplicateName) {
			t.Fatalf("Register(%q) = %v, want ErrDuplicateName", dup, err)
		}
		if !strings.Contains(err.Error(), `"OptChain"`) {
			t.Fatalf("Register(%q) error %q does not quote the first display name", dup, err)
		}
	}
	if e, _ := tab.Lookup("optchain"); e != 1 {
		t.Fatalf("duplicate registration overwrote the entry: got %d", e)
	}
}

func TestLookupTrimsAndFoldsCase(t *testing.T) {
	var tab Table[string]
	if err := tab.Register("  Metis\t", "replay"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Metis", "metis", " METIS ", "\tmEtIs\n"} {
		if e, ok := tab.Lookup(name); !ok || e != "replay" {
			t.Errorf("Lookup(%q) = %q, %v", name, e, ok)
		}
	}
	for _, name := range []string{"", "Meti", "Metis2"} {
		if _, ok := tab.Lookup(name); ok {
			t.Errorf("Lookup(%q) found an entry", name)
		}
	}
	if got := tab.Names(nil); !slices.Equal(got, []string{"Metis"}) {
		t.Fatalf("Names = %v, want the trimmed display name", got)
	}
}

func TestNamesSortedAndFiltered(t *testing.T) {
	var tab Table[bool] // entry: needs arguments
	for name, needsArgs := range map[string]bool{
		"replay": true, "bitcoin": false, "Mix": false, "adversarial": false,
	} {
		if err := tab.Register(name, needsArgs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tab.Names(nil), []string{"Mix", "adversarial", "bitcoin", "replay"}; !slices.Equal(got, want) {
		t.Fatalf("Names(nil) = %v, want %v", got, want)
	}
	standalone := tab.Names(func(needsArgs bool) bool { return !needsArgs })
	if want := []string{"Mix", "adversarial", "bitcoin"}; !slices.Equal(standalone, want) {
		t.Fatalf("filtered Names = %v, want %v", standalone, want)
	}
	if got := tab.Names(func(bool) bool { return false }); len(got) != 0 {
		t.Fatalf("reject-all filter returned %v", got)
	}
}

// TestConcurrentAccess runs Register, Lookup and Names from many
// goroutines at once; `go test -race` turns any unsynchronized access into
// a failure.
func TestConcurrentAccess(t *testing.T) {
	var tab Table[int]
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("s%d-%d", w, i)
				if err := tab.Register(name, i); err != nil {
					t.Error(err)
					return
				}
				if e, ok := tab.Lookup(strings.ToUpper(name)); !ok || e != i {
					t.Errorf("Lookup(%q) = %d, %v", name, e, ok)
					return
				}
				tab.Names(func(e int) bool { return e%2 == 0 })
			}
		}(w)
	}
	wg.Wait()
	if got := len(tab.Names(nil)); got != workers*per {
		t.Fatalf("registered %d names, want %d", got, workers*per)
	}
}
