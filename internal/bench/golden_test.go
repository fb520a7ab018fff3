package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick_tables.golden from this run")

// goldenIDs are E3 and the experiments that run on the composed simnet →
// DHT → resilience → scrub stack (E7 and E16 on its bottom two layers, with
// sealed records). Their quick-mode tables and metrics derive only from
// seeds, simulated costs and (E3) envelope sizes, so any change in how the
// stack is wired or a Table-I group is built shows up as a byte difference
// here.
var goldenIDs = []string{"e3", "e7", "e16", "e17", "e19", "e20", "e21", "e22", "e23", "e24", "e25", "e26"}

// e23Unstable names E23's measured-memory columns and metrics: live heap is
// the garbage collector's business and differs run to run.
func e23Unstable(name string) bool {
	return name == "live heap" || name == "B/user" ||
		strings.Contains(name, "_heap_") || strings.Contains(name, "_bytes_per_user_")
}

// TestQuickTablesGolden pins the rendered quick-mode table and Table.Metrics
// of every stack-backed experiment to testdata/quick_tables.golden. E23
// contributes its deterministic fields only: the heap columns are blanked
// and each arm's full e23Stats (msgs, bytes, hops, digest, misses, failed)
// is appended instead. Regenerate with `go test ./internal/bench -run
// TestQuickTablesGolden -update` — only when an experiment's numbers are
// meant to move.
func TestQuickTablesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range selectExperiments(t, goldenIDs) {
		tb, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if e.ID == "e23" {
			for i, h := range tb.Header {
				if e23Unstable(h) {
					for _, row := range tb.Rows {
						row[i] = "-"
					}
				}
			}
		}
		tb.Render(&got)
		for _, m := range tb.Metrics {
			if e.ID == "e23" && e23Unstable(m.Name) {
				continue
			}
			fmt.Fprintf(&got, "  metric: %s %s %s\n", m.Name, m.Unit, strconv.FormatFloat(m.Value, 'g', -1, 64))
		}
		if e.ID == "e23" {
			for _, batched := range []bool{false, true} {
				s, _, _, err := runE23Arm(10_000, 5_000, 1, batched, false)
				if err != nil {
					t.Fatalf("e23 arm: %v", err)
				}
				fmt.Fprintf(&got, "  stats: batched=%v %+v\n", batched, s)
			}
		}
	}

	path := filepath.Join("testdata", "quick_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("quick tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("quick tables differ from %s in length: got %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
