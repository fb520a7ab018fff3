package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(true)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Fatalf("%s: row %v does not match header %v", e.ID, row, tb.Header)
				}
			}
			var buf bytes.Buffer
			tb.Render(&buf)
			if !strings.Contains(buf.String(), tb.ID) {
				t.Fatalf("%s: render missing ID", e.ID)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("e1"); !ok {
		t.Fatal("e1 not found")
	}
	if _, ok := Find("e99"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestE3Shapes(t *testing.T) {
	// Validate the paper's size shapes directly from the experiment output:
	// public-key and IBBE grow with group size; symmetric stays flat.
	tb, err := E3CiphertextSize(true)
	if err != nil {
		t.Fatalf("E3: %v", err)
	}
	sizes := map[string][]int{}
	for _, row := range tb.Rows {
		var vals []int
		for _, c := range row[1:] {
			v, err := strconv.Atoi(c)
			if err != nil {
				t.Fatalf("non-numeric size %q", c)
			}
			vals = append(vals, v)
		}
		sizes[row[0]] = vals
	}
	grow := func(scheme string) bool {
		v := sizes[scheme]
		return v[len(v)-1] > v[0]
	}
	if !grow("public-key") {
		t.Error("public-key ciphertext did not grow with group size")
	}
	if !grow("ibbe") {
		t.Error("ibbe ciphertext did not grow with group size")
	}
	if grow("symmetric") {
		t.Error("symmetric ciphertext grew with group size")
	}
	if grow("hybrid") {
		t.Error("hybrid ciphertext grew with group size")
	}
}

func TestE2Shapes(t *testing.T) {
	tb, err := E2MembershipCost(true)
	if err != nil {
		t.Fatalf("E2: %v", err)
	}
	byScheme := map[string][]string{}
	for _, row := range tb.Rows {
		byScheme[row[0]] = row
	}
	// symmetric & ABE re-encrypt the archive; IBBE & public-key are free.
	for _, s := range []string{"symmetric", "abe", "hybrid", "substitution"} {
		if byScheme[s][3] == "0" {
			t.Errorf("%s revocation re-encrypted nothing", s)
		}
		if byScheme[s][5] != "false" {
			t.Errorf("%s revocation marked free", s)
		}
	}
	for _, s := range []string{"ibbe", "public-key"} {
		if byScheme[s][3] != "0" {
			t.Errorf("%s revocation re-encrypted envelopes", s)
		}
		if byScheme[s][5] != "true" {
			t.Errorf("%s revocation not free", s)
		}
	}
}

func TestE7Shapes(t *testing.T) {
	tb, err := E7Availability(true)
	if err != nil {
		t.Fatalf("E7: %v", err)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad float %q", s)
		}
		return v
	}
	// First row (1 replica) vs second (3 replicas) at the lowest uptime.
	if parse(tb.Rows[1][1]) <= parse(tb.Rows[0][1]) {
		t.Error("availability did not increase with replication")
	}
	// Last row is the proxy row: available regardless of uptime.
	proxyRow := tb.Rows[len(tb.Rows)-1]
	for _, c := range proxyRow[1:] {
		if parse(c) < 0.99 {
			t.Errorf("proxy availability %s < 1", c)
		}
	}
}

// The composed row's leakage cells are computed from the Engine's audit, so
// on E8's chain graph alice–f1–f2–carol they must name f1 as the only party
// that saw alice, and carol as the only place the content sat.
func TestE8ComposedRowLeakageComesFromOutcome(t *testing.T) {
	tb, err := E8SearchSchemes(true)
	if err != nil {
		t.Fatalf("E8: %v", err)
	}
	row := tb.Rows[len(tb.Rows)-1]
	if !strings.HasPrefix(row[0], "composed flow") {
		t.Fatalf("last row is %q, want the composed flow", row[0])
	}
	if row[2] != "f1 (first relay)" {
		t.Errorf("searcher visible to = %q, want only the first relay f1", row[2])
	}
	if row[3] != "carol, served to a pseudonym" {
		t.Errorf("content visible to = %q, want the owner and a pseudonymous reader", row[3])
	}
	for _, other := range []string{"alice", "f2"} {
		if strings.Contains(row[2]+row[3], other) {
			t.Errorf("leakage cells %q / %q name %s", row[2], row[3], other)
		}
	}
}

func TestE6Shapes(t *testing.T) {
	tb, err := E6OverlayLookup(true)
	if err != nil {
		t.Fatalf("E6: %v", err)
	}
	// Index rows by overlay name and size.
	type key struct {
		name string
		n    string
	}
	hops := map[key]float64{}
	msgs := map[key]float64{}
	for _, row := range tb.Rows {
		h, _ := strconv.ParseFloat(row[2], 64)
		m, _ := strconv.ParseFloat(row[3], 64)
		hops[key{row[0], row[1]}] = h
		msgs[key{row[0], row[1]}] = m
	}
	// Flooding messages grow with n; DHT hops grow sublinearly.
	if msgs[key{"unstructured-flood", "256"}] <= msgs[key{"unstructured-flood", "64"}] {
		t.Error("flooding cost did not grow with n")
	}
	dhtGrowth := hops[key{"structured-dht", "256"}] / hops[key{"structured-dht", "64"}]
	if dhtGrowth > 3 {
		t.Errorf("DHT hop growth %f not logarithmic", dhtGrowth)
	}
	// Super-peer and federation stay constant-hop.
	for _, name := range []string{"semi-structured-superpeer", "server-federation"} {
		if hops[key{name, "256"}] > 2.5 {
			t.Errorf("%s hops %f exceed constant bound", name, hops[key{name, "256"}])
		}
	}
}

func TestAnchorsDemo(t *testing.T) {
	ordered, err := anchorsDemoEntries()
	if err != nil {
		t.Fatalf("anchorsDemoEntries: %v", err)
	}
	if !ordered {
		t.Fatal("anchored entries not provably ordered")
	}
}
