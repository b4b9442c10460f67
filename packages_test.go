package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanPackages: every package under internal/ is reached through
// non-test imports from a package that ships — the root package, a command,
// the benchmark, the server, client or router — so no code lingers that no
// serving path, command or benchmark runs. Importers under examples/ do not
// count, nor do tests.
func TestNoOrphanPackages(t *testing.T) {
	// Test oracles: only tests import them, by design.
	oracles := map[string]bool{"internal/naive": true, "internal/testutil": true}
	const module = "repro"

	imports := make(map[string][]string) // package dir -> module package dirs it imports
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		deps := imports[dir]
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if p == module {
				deps = append(deps, ".")
			} else if sub, ok := strings.CutPrefix(p, module+"/"); ok {
				deps = append(deps, sub)
			}
		}
		imports[dir] = deps // recorded even when it imports nothing in the module
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := make(map[string]bool)
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, d := range imports[dir] {
			visit(d)
		}
	}
	under := func(dir, root string) bool { return dir == root || strings.HasPrefix(dir, root+"/") }
	for dir := range imports {
		if !under(dir, "internal") && !under(dir, "examples") {
			visit(dir)
		}
	}
	var orphans []string
	for dir := range imports {
		if under(dir, "internal") && !reached[dir] && !oracles[dir] {
			orphans = append(orphans, dir)
		}
	}
	slices.Sort(orphans)
	if len(orphans) > 0 {
		t.Errorf("packages no shipped package imports, directly or through another: %v", orphans)
	}
}
