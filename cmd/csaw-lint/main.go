// csaw-lint enforces the simulation's determinism invariants with a
// suite of static analyzers (see internal/lint): virtual time only,
// seeded randomness only, no real network, no dropped sync errors, no
// blocking under a mutex, no map-order leaks, no shared-slice appends,
// no unlocked cond wakeups, no cancellation-deaf retry loops, no leaked
// trace spans, no stores into a slice a connection took by reference.
//
// Usage:
//
//	csaw-lint [-list] [-tests=false] [-json file] [-dir path] [packages]
//
// With no packages it checks ./... . Test files are analyzed by default
// (-tests=false restores source-only); -json writes the diagnostics as a
// machine-readable artifact alongside the human output; -dir analyzes
// the .go files of one directory as a standalone package (the loader the
// golden-test harness uses), ignoring package patterns.
//
// Exit codes follow the staticcheck convention so CI can gate on it
// directly: 0 = clean, 1 = diagnostics were reported, 2 = the checker
// itself failed (bad package patterns, type errors, ...).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"csaw/internal/lint"
	"csaw/internal/lint/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	jsonOut := flag.String("json", "", "write diagnostics to this file as JSON")
	dir := flag.String("dir", "", "analyze one directory as a standalone package instead of package patterns")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, cfg, err := load(*dir, *tests, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, lint.Analyzers(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, analysis.EncodeJSON(diags), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "csaw-lint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// load resolves the three loading modes: one standalone directory, module
// patterns with tests, or module patterns without.
func load(dir string, tests bool, patterns []string) ([]*analysis.Package, *analysis.Config, error) {
	if dir != "" {
		pkg, err := analysis.LoadDir(dir, filepath.Base(dir))
		if err != nil {
			return nil, nil, err
		}
		// A standalone directory has no module root; run with the suite's
		// allowlist keyed off the directory itself.
		return []*analysis.Package{pkg}, lint.DefaultConfig(dir), nil
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadFn := analysis.Load
	if tests {
		loadFn = analysis.LoadTests
	}
	pkgs, loaded, err := loadFn("", patterns...)
	if err != nil {
		return nil, nil, err
	}
	return pkgs, lint.DefaultConfig(loaded.ModuleRoot), nil
}
