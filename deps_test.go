package optchain_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingPathDependencies pins the dependency edge between the library
// and the experiment harness: the library, the serving gateway, and the
// optchain-serve binary must not link the testing package, the bench
// harness, or the sweep layer. A re-export of any of them from the root
// package pulls all three into every consumer.
func TestServingPathDependencies(t *testing.T) {
	forbidden := []string{"testing", "optchain/internal/bench", "optchain/experiment"}
	for _, pkg := range []string{"optchain", "optchain/serve", "optchain/cmd/optchain-serve"} {
		out, err := exec.Command("go", "list", "-deps", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", pkg, err, out)
		}
		deps := strings.Fields(string(out))
		for _, bad := range forbidden {
			if slices.Contains(deps, bad) {
				t.Errorf("%s links %s", pkg, bad)
			}
		}
	}
}
