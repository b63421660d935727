package triple

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDependencyClosure pins Step 2's trusted base: the checker re-verifies
// an exported graph from the binary's bytes, so its non-test import
// closure must not link the lifter, the pointer pre-pass, the scheduler,
// the store, the linter or the fault injector.
func TestDependencyClosure(t *testing.T) {
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] || !strings.HasPrefix(path, "repro/") {
			return
		}
		seen[path] = true
		pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, "repro/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			walk(imp)
		}
	}
	walk("repro/internal/triple")
	if !seen["repro/internal/sem"] {
		t.Fatalf("closure walk missed the instruction semantics: %v", seen)
	}
	for _, banned := range []string{"core", "ptr", "pipeline", "hgstore", "hglint", "faultinject"} {
		if seen["repro/internal/"+banned] {
			t.Errorf("triple links repro/internal/%s", banned)
		}
	}
}
