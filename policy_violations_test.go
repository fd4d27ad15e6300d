package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPolicyViolations seeds one tree per case and requires policyViolations
// to report exactly the named violation, or nothing.
func TestPolicyViolations(t *testing.T) {
	for _, c := range []struct {
		name   string
		files  map[string]string
		exempt map[string]string
		want   string // prefix of the one violation; "" for none
	}{
		{name: "globalrand", files: map[string]string{"cmd/x/main.go": `package main; import _ "math/rand"`},
			want: "cmd/x/main.go globalrand:"},
		{name: "importboundary", files: map[string]string{"internal/a/a.go": `package a; import _ "net/http"`},
			want: "internal/a/a.go importboundary:"},
		{name: "walltime", files: map[string]string{"internal/c/c.go": `package c; import _ "time"`},
			want: "internal/c/c.go walltime:"},
		{name: "stdout", files: map[string]string{"internal/a/a.go": `package a; import f "fmt"; func g() { f.Println() }`},
			want: "internal/a/a.go stdout:"},
		{name: "shardsafe", files: map[string]string{"internal/sim/k.go": `package sim; func g() { go g() }`},
			want: "internal/sim/k.go shardsafe:"},
		{name: "stale", files: map[string]string{"internal/a/a.go": `package a`},
			exempt: map[string]string{"internal/a/a.go walltime": "why"},
			want:   "internal/a/a.go walltime: stale exemption"},
		{name: "exempt", files: map[string]string{"internal/a/a.go": `package a; import _ "time"`},
			exempt: map[string]string{"internal/a/a.go walltime": "why"}},
		{name: "allowed", files: map[string]string{
			"internal/experiments/e.go": `package experiments; import "fmt"; func g() { fmt.Println() }`,
			"internal/sim/parallel.go":  `package sim; import "sync"; func g(c chan int) { var wg sync.WaitGroup; go g(c); wg.Wait() }`,
			"internal/a/a_test.go":      `package a; import _ "math/rand"`,
			"internal/a/a.go":           "//go:build ignore\n\npackage a; import _ \"os\"",
			"cmd/x/main.go":             `package main; import ("fmt"; _ "os"; _ "time"); func main() { fmt.Println() }`,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			for name, src := range c.files {
				p := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			vs, err := policyViolations(root, c.exempt)
			if err != nil {
				t.Fatal(err)
			}
			if c.want == "" && len(vs) != 0 {
				t.Errorf("got %q, want none", vs)
			} else if c.want != "" && (len(vs) != 1 || !strings.HasPrefix(vs[0], c.want)) {
				t.Errorf("got %q, want one violation starting %q", vs, c.want)
			}
		})
	}
}
