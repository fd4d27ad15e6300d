package lint

import (
	"fmt"
	"os"
	"strings"
)

// Policy declares which packages carry the determinism invariant and which
// imports are off-limits inside them. It is loaded from a plain-text file
// (cescalint.policy at the module root) so the package sets are reviewable
// data, not code:
//
//	# comment
//	deterministic    repro/internal/sim
//	deterministic    repro/internal/platform
//	output           repro/internal/experiments
//	unchecked        repro/internal/lint
//	forbid           net
//	shard-restricted repro/internal/sim
//	shard-exempt     repro/internal/sim/parallel.go
//
// Patterns are exact import paths, or a prefix ending in /... which matches
// the path itself and everything below it. "forbid net" bans both "net" and
// every "net/..." subpackage. shard-exempt names one file (as
// "<package-path>/<file>.go") that may use concurrency inside a
// shard-restricted package; exemptions are exact, never patterns.
//
// Every package in the module must appear in at least one of the
// deterministic, output, or unchecked sets; a package in none of them is a
// policy-completeness finding, so a newly added package cannot silently
// bypass the suite. The sets may overlap: internal/experiments is both
// deterministic and the one deterministic package allowed to print.
type Policy struct {
	deterministic   []string
	output          []string
	unchecked       []string
	forbidden       []string
	shardRestricted []string
	shardExempt     []string
}

// IsDeterministic reports whether pkg is in the deterministic set: packages
// whose observable behaviour must be bit-identical run to run, at any
// parallelism, on any host.
func (p *Policy) IsDeterministic(pkg string) bool { return matchAny(p.deterministic, pkg) }

// IsOutput reports whether pkg may perform process I/O (os.Stdout,
// os.Stderr, fmt.Print*). Only the experiment renderers and commands
// qualify; everything else returns values and lets callers print.
func (p *Policy) IsOutput(pkg string) bool { return matchAny(p.output, pkg) }

// IsUnchecked reports whether pkg is deliberately outside the lint surface
// (tooling). Unchecked packages still type-check, but no determinism
// analyzer runs on them.
func (p *Policy) IsUnchecked(pkg string) bool { return matchAny(p.unchecked, pkg) }

// Covers reports whether pkg appears in any policy set. The driver turns an
// uncovered package into a finding so the policy stays complete as the
// module grows.
func (p *Policy) Covers(pkg string) bool {
	return p.IsDeterministic(pkg) || p.IsOutput(pkg) || p.IsUnchecked(pkg)
}

// ForbiddenImport reports whether importPath may not be imported from a
// deterministic package. "forbid net" covers "net" and all "net/..."
// subpackages.
func (p *Policy) ForbiddenImport(importPath string) bool {
	for _, f := range p.forbidden {
		base := strings.TrimSuffix(f, "/...")
		if importPath == base || strings.HasPrefix(importPath, base+"/") {
			return true
		}
	}
	return false
}

// IsShardRestricted reports whether pkg confines concurrency to its
// shard-exempt files (the sharded DES kernel). The shardsafe analyzer
// flags every goroutine, channel, select and sync import elsewhere in it.
func (p *Policy) IsShardRestricted(pkg string) bool { return matchAny(p.shardRestricted, pkg) }

// IsShardExempt reports whether the file named "<pkg-path>/<base>.go" is a
// sanctioned concurrency site inside a shard-restricted package. Exemptions
// are exact file names, never patterns: each one is a reviewed decision.
func (p *Policy) IsShardExempt(file string) bool {
	for _, f := range p.shardExempt {
		if file == f {
			return true
		}
	}
	return false
}

func matchAny(patterns []string, pkg string) bool {
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if pkg == base || strings.HasPrefix(pkg, base+"/") {
				return true
			}
		} else if pkg == pat {
			return true
		}
	}
	return false
}

// ParsePolicy parses policy text. name is used in error messages only.
func ParsePolicy(data []byte, name string) (*Policy, error) {
	p := &Policy{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<keyword> <package-pattern>\", got %q", name, i+1, line)
		}
		switch fields[0] {
		case "deterministic":
			p.deterministic = append(p.deterministic, fields[1])
		case "output":
			p.output = append(p.output, fields[1])
		case "unchecked":
			p.unchecked = append(p.unchecked, fields[1])
		case "forbid":
			p.forbidden = append(p.forbidden, fields[1])
		case "shard-restricted":
			p.shardRestricted = append(p.shardRestricted, fields[1])
		case "shard-exempt":
			p.shardExempt = append(p.shardExempt, fields[1])
		default:
			return nil, fmt.Errorf("%s:%d: unknown keyword %q (want deterministic, output, unchecked, forbid, shard-restricted, or shard-exempt)", name, i+1, fields[0])
		}
	}
	return p, nil
}

// LoadPolicy reads and parses a policy file.
func LoadPolicy(path string) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParsePolicy(data, path)
}
