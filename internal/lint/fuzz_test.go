package lint

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParsePolicy: the policy parser never panics, and every line of a file
// it accepts put its pattern into exactly the set its keyword names. The
// seed corpus under testdata/fuzz is cescalint.policy and the tests' policy.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pol, err := ParsePolicy(data, "fuzz.policy")
		if err != nil {
			return
		}
		want := map[string][]string{}
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			if len(fields) != 2 {
				t.Fatalf("accepted a line of %d fields: %q", len(fields), line)
			}
			want[fields[0]] = append(want[fields[0]], fields[1])
		}
		for keyword, got := range map[string][]string{
			"deterministic": pol.deterministic, "output": pol.output, "unchecked": pol.unchecked,
			"forbid": pol.forbidden, "shard-restricted": pol.shardRestricted, "shard-exempt": pol.shardExempt,
		} {
			if !slices.Equal(got, want[keyword]) {
				t.Errorf("%s set = %q, the file's %s lines say %q", keyword, got, keyword, want[keyword])
			}
			delete(want, keyword)
		}
		if len(want) != 0 {
			t.Errorf("accepted lines under unknown keywords: %q", want)
		}
	})
}

// FuzzParseDirective: the //cescalint: directive parser never panics, returns
// either an analyzer or a problem, and only "allow <known analyzer> -- <reason>"
// yields a live pragma — never a directive without a reason. The seed corpus
// is the directives of testdata/pragma.
func FuzzParseDirective(f *testing.F) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	f.Fuzz(func(t *testing.T, rest string) {
		name, problem := parseDirective(rest, known)
		if (name == "") == (problem == "") {
			t.Fatalf("parseDirective(%q) = (%q, %q), want exactly one of them", rest, name, problem)
		}
		if name == "" {
			return
		}
		if !known[name] {
			t.Errorf("%q: live pragma for unknown analyzer %q", rest, name)
		}
		if !strings.HasPrefix(rest, "allow") {
			t.Errorf("%q: live pragma from a directive that is not allow", rest)
		}
		if _, reason, ok := strings.Cut(rest, "--"); !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%q: live pragma without a reason", rest)
		}
	})
}
