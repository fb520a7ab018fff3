package bench

import (
	"bytes"
	"strings"
	"testing"
)

// deterministicIDs are experiments whose rendered output contains no
// wall-clock measurement — everything in their tables derives from seeded
// RNGs and simulated costs — so two runs must be byte-identical.
var deterministicIDs = []string{"e3", "e6", "e7", "e16", "e17", "e19", "e20"}

func selectExperiments(t *testing.T, ids []string) []Experiment {
	t.Helper()
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s not found", id)
		}
		out = append(out, e)
	}
	return out
}

// TestRunSelectedDeterministicAcrossWorkers is the -parallel determinism
// guarantee: a seeded experiment set produces byte-identical output whether
// experiments run serially or eight at a time.
func TestRunSelectedDeterministicAcrossWorkers(t *testing.T) {
	selected := selectExperiments(t, deterministicIDs)
	serial, err := RunSelected(selected, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := RunSelected(selected, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(concurrent) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if serial[i].ID != concurrent[i].ID {
			t.Fatalf("result order differs at %d: %s vs %s", i, serial[i].ID, concurrent[i].ID)
		}
		if serial[i].Output != concurrent[i].Output {
			t.Errorf("%s output differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].ID, serial[i].Output, concurrent[i].Output)
		}
	}
}

func TestRunSelectedPropagatesFailure(t *testing.T) {
	boom := Experiment{ID: "boom", Description: "always fails", Run: func(bool) (*Table, error) {
		return nil, errTest
	}}
	if _, err := RunSelected([]Experiment{boom}, true, 4); err == nil {
		t.Fatal("expected error")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test failure" }

func TestJSONReportRoundTrip(t *testing.T) {
	selected := selectExperiments(t, []string{"e3"})
	results, err := RunSelected(selected, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	report := BuildReport(results, true)
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ValidateReport(buf.Bytes())
	if err != nil {
		t.Fatalf("round-trip validation: %v\n%s", err, buf.String())
	}
	if len(parsed.Experiments) != 1 || parsed.Experiments[0].ID != "e3" {
		t.Fatalf("unexpected parsed report: %+v", parsed)
	}
	if !parsed.Quick {
		t.Fatal("quick flag lost in round trip")
	}
}

func TestValidateReportRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "tables ahoy",
		"wrong schema":   `{"schema":"other/v9","quick":false,"experiments":[{"id":"e1","title":"t","seconds":1,"rows":1,"metrics":[]}]}`,
		"old schema":     `{"schema":"godosn/bench/v1","quick":false,"experiments":[{"id":"e1","title":"t","seconds":1,"rows":1,"metrics":[]}]}`,
		"no experiments": `{"schema":"godosn/bench/v2","quick":false,"experiments":[]}`,
		"empty id":       `{"schema":"godosn/bench/v2","quick":false,"experiments":[{"id":"","title":"t","seconds":1,"rows":1,"metrics":[]}]}`,
		"zero rows":      `{"schema":"godosn/bench/v2","quick":false,"experiments":[{"id":"e1","title":"t","seconds":1,"rows":0,"metrics":[]}]}`,
		"bad histogram":  `{"schema":"godosn/bench/v2","quick":false,"experiments":[{"id":"e1","title":"t","seconds":1,"rows":1,"metrics":[],"telemetry":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":3,"overflow":0,"buckets":[{"le":1,"count":1}]}],"events":[]}}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateReport([]byte(data)); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestE18OutputsMatchColumn runs E18 (quick) and checks every row's
// serial/parallel output comparison passed — the digest-equality property
// the experiment enforces internally.
func TestE18OutputsMatch(t *testing.T) {
	tb, err := E18Parallelism(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("row %v: outputs did not match", row)
		}
	}
	if !strings.Contains(tb.Title, "worker pool") {
		t.Fatalf("unexpected title %q", tb.Title)
	}
}
