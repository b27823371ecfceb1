package analysis

import (
	"strings"
	"testing"
)

const unreachedLibSrc = `package lib

// Used is called by the command.
func Used() int { return helper() }

func helper() int { return 1 }

// Dead is called by nobody outside its tests.
func Dead() int { return 2 }
`

const unreachedCmdSrc = `package main

import "example.com/lib"

func main() { _ = lib.Used() }
`

// TestUnreachedAcrossPackages: the library is analyzed before the command
// that imports it, yet its Run must see the command's references — the
// driver collects every package's facts before any Run.
func TestUnreachedAcrossPackages(t *testing.T) {
	lib, cmd := loadDependent(t, "example.com/lib", unreachedLibSrc, "example.com/cmd", unreachedCmdSrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"unreached": {Packages: []string{"example.com/lib"}}}}
	findings, err := runPackages([]*Package{cmd, lib}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "example.com/lib.Dead is reached from no main") {
		t.Fatalf("findings = %v, want exactly lib.Dead", findings)
	}
}

// TestUnreachedSilentWithoutMain: a run that loads no main package has no
// roots, so it reports nothing rather than everything.
func TestUnreachedSilentWithoutMain(t *testing.T) {
	pkg := loadSource(t, "example.com/lib", unreachedLibSrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"unreached": {Packages: []string{"example.com/lib"}}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none without a main package", findings)
	}
}

// TestUnreachedStaleAllowance: allowlisting a function that a root reaches
// anyway is a stale entry, and so is allowlisting one that does not exist.
func TestUnreachedStaleAllowance(t *testing.T) {
	lib, cmd := loadDependent(t, "example.com/lib", unreachedLibSrc, "example.com/cmd", unreachedCmdSrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"unreached": {
		Packages: []string{"example.com/lib"},
		Allow: []Allowance{
			{Site: "example.com/lib.Dead", Reason: "kept for a benchmark"},
			{Site: "example.com/lib.Used", Reason: "the command calls it anyway"},
			{Site: "example.com/lib.Gone", Reason: "deleted long ago"},
		},
	}}}
	findings, err := runPackages([]*Package{lib, cmd}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	var stale []string
	for _, f := range findings {
		if f.Check != "hyvet" || !strings.Contains(f.Message, "stale allowance") {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		stale = append(stale, f.Message)
	}
	if len(stale) != 2 || !strings.Contains(stale[0]+stale[1], "lib.Used") || !strings.Contains(stale[0]+stale[1], "lib.Gone") {
		t.Fatalf("stale findings = %v, want lib.Used and lib.Gone", stale)
	}
}
