package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module with one function per case: exported and unexported,
// each called from a non-test file and called only from a test; a method
// reached only through a module interface; and a String method reached only
// through fmt.
const fixture = "testdata/fixture"

func TestScanFlagsOnlyTheTestOnlyExport(t *testing.T) {
	uncalled, exported, err := scan([]string{fixture})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	problems, err := check(uncalled, exported, "")
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "internal/lib TestOnly has no non-test caller") ||
		!strings.Contains(problems[1], "internal/lib testOnly has no non-test caller") {
		t.Fatalf("problems = %q, want exactly internal/lib TestOnly and testOnly", problems)
	}
}

func TestAllowList(t *testing.T) {
	uncalled, exported, err := scan([]string{fixture})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	for _, tc := range []struct {
		name, allow, want string
	}{
		{"allowed", "internal/lib TestOnly oracle: lib_test.go reads it\n", ""},
		{"next direction", "# comment\n\ninternal/lib TestOnly next:D1: gets its caller later\n", ""},
		{"stale line", "internal/lib TestOnly oracle: ok\ninternal/lib Gone kept: deleted since\n", "internal/lib Gone: no such function"},
		{"line for a called export", "internal/lib TestOnly oracle: ok\ninternal/lib Called kept: x\n", "internal/lib Called: has a non-test caller now"},
		{"unknown reason", "internal/lib TestOnly because: tests\n", "want <package dir> <name>"},
		{"empty direction", "internal/lib TestOnly next:: later\n", "want <package dir> <name>"},
		{"no why", "internal/lib TestOnly oracle:\n", "want <package dir> <name>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "allow.txt")
			// Every case also allows the unexported finding.
			allow := tc.allow + "internal/lib testOnly oracle: lib_test.go reads it\n"
			if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
				t.Fatal(err)
			}
			problems, err := check(uncalled, exported, path)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if tc.want == "" {
				if len(problems) != 0 {
					t.Fatalf("problems = %q, want none", problems)
				}
				return
			}
			if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
				t.Fatalf("problems = %q, want one containing %q", problems, tc.want)
			}
		})
	}
}
