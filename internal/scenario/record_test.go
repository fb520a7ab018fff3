package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateExpect = flag.Bool("update", false, "rewrite the expect line of each hand-written scenarios/ file from its run")

func TestRecordProducesReplayableScenario(t *testing.T) {
	cfg := RecordConfig{
		Name: "test-capture", Seed: 5, Ticks: 30, Nodes: 10, Replication: 3,
		Users: 60, OpsPerTick: 4, Readers: 4, HealEvery: 8,
		Profile: []EventKind{KindChurn, KindLoss, KindRevoke},
	}
	sc, rep, err := Record(cfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("recorded scenario fails its own replay: %v", rep.Violations)
	}
	if sc.Expect == nil {
		t.Fatalf("record did not pin expect counters")
	}
	if len(sc.Events) != 3 {
		t.Fatalf("sampled %d events, want 3 (one per profile kind)", len(sc.Events))
	}
	hasFloor, hasRevokedCheck := false, false
	for _, inv := range sc.Invariants {
		if inv.Kind == InvLookupSuccessMin {
			hasFloor = true
		}
		if inv.Kind == InvNoRevokedOpens {
			hasRevokedCheck = true
		}
	}
	if !hasFloor || !hasRevokedCheck {
		t.Fatalf("calibrated invariants incomplete: %+v", sc.Invariants)
	}

	// The file form round-trips and replays green.
	parsed, err := Parse(sc.Format())
	if err != nil {
		t.Fatalf("recorded file does not parse: %v", err)
	}
	report, err := Replay(parsed)
	if err != nil {
		t.Fatalf("replay of parsed recording: %v", err)
	}
	if report.Failed() {
		t.Fatalf("parsed recording fails: %v", report.Violations)
	}
}

func TestRecordIsDeterministic(t *testing.T) {
	cfg := RecordConfig{
		Name: "det-capture", Seed: 9, Ticks: 24, Nodes: 8, Replication: 3,
		Users: 40, OpsPerTick: 4,
		Profile: []EventKind{KindChurn, KindLoss},
	}
	a, _, err := Record(cfg)
	if err != nil {
		t.Fatalf("record a: %v", err)
	}
	b, _, err := Record(cfg)
	if err != nil {
		t.Fatalf("record b: %v", err)
	}
	if !bytes.Equal(a.Format(), b.Format()) {
		t.Fatalf("two recordings of the same config differ:\n%s\nvs\n%s", a.Format(), b.Format())
	}
}

func TestBuiltinLibraryShape(t *testing.T) {
	lib := BuiltinLibrary()
	if len(lib) < 6 {
		t.Fatalf("library has %d entries, want >= 6", len(lib))
	}
	seen := make(map[string]bool)
	covered := make(map[EventKind]bool)
	for _, cfg := range lib {
		if seen[cfg.Name] {
			t.Fatalf("duplicate library name %q", cfg.Name)
		}
		seen[cfg.Name] = true
		if !nameRe.MatchString(cfg.Name) {
			t.Fatalf("library name %q not canonical", cfg.Name)
		}
		for _, k := range cfg.Profile {
			covered[k] = true
		}
	}
	for k := range shapes {
		if !covered[k] {
			t.Fatalf("no library scenario exercises kind %s", k)
		}
	}
}

// TestCommittedLibraryMatchesBuiltins pins the committed scenarios/ files to
// the builtin capture configs byte-for-byte: regenerating the library must
// be a no-op, and any stack change that shifts a digest or counter must
// come with regenerated files (dosnbench -scenario-record-library scenarios).
func TestCommittedLibraryMatchesBuiltins(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		t.Skipf("no committed library at %s", dir)
	}
	for _, cfg := range BuiltinLibrary() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			path := filepath.Join(dir, cfg.Name+".scenario")
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("committed scenario missing: %v", err)
			}
			sc, _, err := Record(cfg)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if !bytes.Equal(committed, sc.Format()) {
				t.Fatalf("%s drifted from its builtin config; regenerate with dosnbench -scenario-record-library scenarios\ncommitted:\n%s\nrecorded:\n%s",
					path, committed, sc.Format())
			}
		})
	}
}

// TestHandWrittenScenariosPinTheirRun holds each hand-written scenarios/
// file (one no BuiltinLibrary config records) to its run: its expect line
// must be the one Record would pin. `go test ./internal/scenario -run
// TestHandWrittenScenariosPinTheirRun -update` rewrites that line in place
// and leaves the rest of the file, comments included, as written.
func TestHandWrittenScenariosPinTheirRun(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	paths, err := filepath.Glob(filepath.Join(dir, "*.scenario"))
	if err != nil || len(paths) == 0 {
		t.Skipf("no committed library at %s", dir)
	}
	builtin := make(map[string]bool)
	for _, cfg := range BuiltinLibrary() {
		builtin[cfg.Name+".scenario"] = true
	}
	for _, path := range paths {
		if builtin[filepath.Base(path)] {
			continue
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")
			at := -1
			for i, l := range lines {
				if strings.HasPrefix(l, "expect ") {
					at = i
				}
			}
			if at < 0 {
				t.Fatalf("%s has no expect line", path)
			}
			// The run does not read the expect line, so an outdated one is
			// left out of the parse rather than refused by it.
			sc, err := Parse([]byte(strings.Join(append(lines[:at:at], lines[at+1:]...), "")))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := Run(sc, RunConfig{Workers: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want := res.expect().line()
			if lines[at] == want {
				return
			}
			if !*updateExpect {
				t.Fatalf("%s pins\n%sbut its run pins\n%srewrite it with -update", path, lines[at], want)
			}
			lines[at] = want
			if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}
