package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"tbd/internal/tensor"
)

// Stamp identifies the host and build a result was measured on. Two
// results are comparable only when every host and toolchain field
// matches; Commit and Source name the code under test and are expected
// to differ between the two sides of a comparison.
type Stamp struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUFlags   []string `json:"cpu_flags"`
	GemmTier   string   `json:"gemm_tier"`
	// GemmEnv reports whether TBD_GEMM_KERNEL overrode the tier choice.
	GemmEnv   bool   `json:"gemm_env_override"`
	GoVersion string `json:"go_version"`
	Platform  string `json:"platform"`
	// Commit is the VCS revision the binary was built from ("" when the
	// sources are not a checkout); Source hashes the module's Go sources,
	// which identifies the code even without version control.
	Commit string `json:"commit,omitempty"`
	Source string `json:"source"`
}

// trackedCPUFlags are the ISA extensions the GEMM tiers dispatch on.
var trackedCPUFlags = []string{"avx2", "fma", "f16c", "avx512f"}

func hostStamp() Stamp {
	_, env := os.LookupEnv("TBD_GEMM_KERNEL")
	s := Stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUFlags:   cpuFlags(),
		GemmTier:   tensor.GemmKernelTier(),
		GemmEnv:    env,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// diff describes the first host or build field on which a and b differ,
// or returns "" when results measured under them may be compared.
func (a Stamp) diff(b Stamp) string {
	pairs := []struct {
		field string
		x, y  any
	}{
		{"nproc", a.NProc, b.NProc},
		{"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
		{"cpu_flags", strings.Join(a.CPUFlags, " "), strings.Join(b.CPUFlags, " ")},
		{"gemm_tier", a.GemmTier, b.GemmTier},
		{"gemm_env_override", a.GemmEnv, b.GemmEnv},
		{"go_version", a.GoVersion, b.GoVersion},
		{"platform", a.Platform, b.Platform},
	}
	for _, p := range pairs {
		if p.x != p.y {
			return fmt.Sprintf("%s %v vs %v", p.field, p.x, p.y)
		}
	}
	return ""
}

// cpuFlags returns which of trackedCPUFlags the CPU advertises, from
// /proc/cpuinfo (empty elsewhere).
func cpuFlags() []string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	have := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			for _, f := range strings.Fields(v) {
				have[f] = true
			}
			break
		}
	}
	var out []string
	for _, f := range trackedCPUFlags {
		if have[f] {
			out = append(out, f)
		}
	}
	return out
}

// sourceDigest hashes go.mod and every .go file under internal/ of the
// module rooted at root, in path order; "unknown" when they cannot be
// read.
func sourceDigest(root string) string {
	files := []string{"go.mod"}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
