package lift

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDependencyClosure pins what the front door links: it lifts,
// retries, stores and checks, and linting a lifted graph is its caller's
// business (hgprove and perfbench call hglint themselves), so its non-test
// import closure must not link the linter.
func TestDependencyClosure(t *testing.T) {
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] || !strings.HasPrefix(path, "repro/") {
			return
		}
		seen[path] = true
		pkg, err := build.ImportDir(filepath.Join("..", strings.TrimPrefix(path, "repro/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			walk(imp)
		}
	}
	walk("repro/lift")
	if !seen["repro/internal/core"] {
		t.Fatalf("closure walk missed the lifter: %v", seen)
	}
	if seen["repro/internal/hglint"] {
		t.Error("lift links repro/internal/hglint")
	}
}
