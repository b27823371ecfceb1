// Command hyvet is the repo's custom static-analysis gate: it mechanically
// enforces the concurrency, durability and determinism invariants the
// storage engines rely on (lock discipline, deterministic float folds, WAL
// error latching, panic-free mutators, injected clocks/randomness). It is
// written against the standard library only — go/parser, go/types and
// compiler export data via `go list -export` — keeping the module
// dependency-free.
//
// The suite is interprocedural: analyzers export per-function and per-field
// summaries (facts) while visiting each package, and packages are analyzed
// in dependency order so a caller is checked against its callees' facts even
// across package boundaries. The command is a thin layer over analysis.Run.
//
// Usage:
//
//	hyvet [-policy hyvet.policy.json] [-json] [-checks] [packages...]
//
// Packages default to ./.... Exit status is 0 when clean, 1 when findings
// exist, 2 when the run itself failed (bad policy, malformed directive,
// packages that do not load). Findings can be suppressed in source with
//
//	//hyvet:allow <check> <reason>
//
// on the offending line or the line above it; suppressions that stop
// matching anything are themselves reported as stale. See
// docs/STATIC_ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hygraph/internal/analysis"
)

func main() {
	policyPath := flag.String("policy", "hyvet.policy.json", "policy file scoping each check (searched upward from the working directory)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout for machine consumption")
	listChecks := flag.Bool("checks", false, "list the analyzer suite and exit")
	flag.Parse()

	if *listChecks {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	path, err := findPolicy(*policyPath)
	if err != nil {
		fatal(err)
	}
	policy, err := analysis.LoadPolicy(path)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.Run("", policy, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []analysis.Finding `json:"findings"`
		}{Findings: findings}); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "hyvet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// findPolicy resolves the policy path, walking parent directories when the
// given relative path does not exist in the working directory (so hyvet
// works from any subdirectory of the repo).
func findPolicy(path string) (string, error) {
	if filepath.IsAbs(path) {
		return path, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		candidate := filepath.Join(dir, path)
		if _, err := os.Stat(candidate); err == nil {
			return candidate, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hyvet: policy file %q not found here or in any parent directory", path)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
