// Command gblint runs the repo-invariant static analyzer suite
// (internal/lint, DESIGN.md §7) over package directories.
//
// Usage:
//
//	gblint [-json] [-checks determinism,lock-io,...] [-list] [packages...]
//
// Packages are directory patterns relative to the module root:
// "./..." (default), "./internal/...", or single directories like
// "./internal/server". Exit codes: 0 clean, 1 findings reported,
// 2 usage or load/type-check failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := lint.Select(*checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Packages(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Type-check failures make analyses unreliable; fail loudly rather
	// than silently passing a tree the analyzers could not see.
	bad := false
	for _, p := range pkgs {
		for _, e := range p.TypeErrs {
			fmt.Fprintf(stderr, "gblint: %s: %v\n", p.Path, e)
			bad = true
		}
	}
	if bad {
		return 2
	}
	findings := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stdout, "gblint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
