package main

import (
	"errors"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// The dist smoke tests spawn REAL worker OS processes: the compiled
// binary re-executes itself once per rank, trains over localhost TCP,
// and the parent verifies bit-identical final weights.

var hashLineRE = regexp.MustCompile(`weights hash ([0-9a-f]{16}) — identical across all (\d+) workers`)

func TestCLIDistRingSpawnsProcesses(t *testing.T) {
	out := run(t, false, "dist", "-workers", "2", "-strategy", "ring", "-model", "mlp", "-steps", "8", "-seed", "7")
	m := hashLineRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("dist output missing identical-hash line:\n%s", out)
	}
	if m[2] != "2" {
		t.Fatalf("identity verdict covers %s workers, want 2:\n%s", m[2], out)
	}
	for _, want := range []string{"2 worker processes", "ring", "rank", "wire-out", "cluster:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dist output missing %q:\n%s", want, out)
		}
	}

	// Same seed, fresh processes: the weights hash must reproduce exactly.
	again := run(t, false, "dist", "-workers", "2", "-strategy", "ring", "-model", "mlp", "-steps", "8", "-seed", "7")
	m2 := hashLineRE.FindStringSubmatch(again)
	if m2 == nil {
		t.Fatalf("repeat dist output missing identical-hash line:\n%s", again)
	}
	if m2[1] != m[1] {
		t.Fatalf("same-seed rerun hash %s != first run %s", m2[1], m[1])
	}
}

func TestCLIDistPSSyncInt8(t *testing.T) {
	out := run(t, false, "dist", "-workers", "2", "-strategy", "ps-sync", "-compress", "int8",
		"-model", "mlp", "-steps", "6", "-seed", "11")
	if !hashLineRE.MatchString(out) {
		t.Fatalf("ps-sync int8 run did not converge to identical weights:\n%s", out)
	}
}

func TestCLIDistValidates(t *testing.T) {
	run(t, true, "dist", "-strategy", "gossip")
	run(t, true, "dist", "-compress", "int4")
	run(t, true, "dist", "-workers", "0")
	run(t, true, "dist", "-role", "manager")
}

func TestCLIDistRejectsNegativeStaleness(t *testing.T) {
	// A bad flag value is a usage error (exit 1, one message), not a
	// panic (exit 2, a stack trace).
	out, err := exec.Command(binPath, "dist", "-strategy", "ps-async", "-staleness", "-1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("tbd dist -staleness -1: %v, want exit status 1:\n%s", err, out)
	}
	if s := string(out); strings.Contains(s, "panic") || !strings.Contains(s, "staleness must be >= 0") {
		t.Fatalf("tbd dist -staleness -1 printed %q, want the staleness error and no panic", s)
	}
}
