package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"godosn/internal/crypto/hashchain"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
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
	for _, quick := range []bool{true, false} {
		tb, err := E7Availability(quick)
		if err != nil {
			t.Fatalf("E7 quick=%v: %v", quick, err)
		}
		_, cells := availabilityCells(t, tb)
		// Every added replica buys availability at the lowest uptime.
		for i := 1; i < len(cells)-1; i++ {
			if cells[i][0] <= cells[i-1][0] {
				t.Errorf("quick=%v: %s replicas serve %.2f, not more than %s replicas' %.2f",
					quick, tb.Rows[i][0], cells[i][0], tb.Rows[i-1][0], cells[i-1][0])
			}
		}
		// Last row is the proxy row: available regardless of uptime.
		for _, a := range cells[len(cells)-1] {
			if a < 0.99 {
				t.Errorf("quick=%v: proxy availability %.2f < 1", quick, a)
			}
		}
	}
}

// availabilityCells parses an E7/E16 table: each column's uptime and each
// row's served fractions.
func availabilityCells(t *testing.T, tb *Table) ([]float64, [][]float64) {
	t.Helper()
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s: bad number %q", tb.ID, s)
		}
		return v
	}
	var uptimes []float64
	for _, h := range tb.Header[1:] {
		uptimes = append(uptimes, parse(strings.TrimSuffix(strings.TrimPrefix(h, "uptime="), "%"))/100)
	}
	cells := make([][]float64, len(tb.Rows))
	for i, row := range tb.Rows {
		for _, c := range row[1:] {
			cells[i] = append(cells[i], parse(c))
		}
	}
	return uptimes, cells
}

// TestAvailabilityMatchesClosedForm checks E7 and E16 against an independent
// model: a record on h holders that churn independently at uptime u is
// served with probability 1−(1−u)^h, and a proxy never churns. Every random
// and friend cell must lie within 4σ + 0.01 of it, σ = √(p(1−p)/trials); every
// row must be non-decreasing in uptime, every E7 column non-decreasing in k,
// and every proxy row at least 0.99.
func TestAvailabilityMatchesClosedForm(t *testing.T) {
	for _, quick := range []bool{true, false} {
		trials := 400
		if quick {
			trials = 100
		}
		e7, err := E7Availability(quick)
		if err != nil {
			t.Fatalf("E7 quick=%v: %v", quick, err)
		}
		e16, err := E16PlacementAblation(quick)
		if err != nil {
			t.Fatalf("E16 quick=%v: %v", quick, err)
		}
		// holders maps a row label to its holder count (owner included); 0
		// marks a proxy row.
		for _, c := range []struct {
			tb      *Table
			holders func(label string) int
		}{
			{e7, func(label string) int {
				if k, err := strconv.Atoi(label); err == nil {
					return k + 1
				}
				return 0
			}},
			{e16, func(label string) int {
				if label == "proxies" {
					return 0
				}
				return 3 + 1
			}},
		} {
			uptimes, cells := availabilityCells(t, c.tb)
			for i, row := range cells {
				label := c.tb.Rows[i][0]
				h := c.holders(label)
				for j, a := range row {
					u := uptimes[j]
					if h == 0 {
						if a < 0.99 {
							t.Errorf("quick=%v %s %q at %.0f%%: proxy row serves %.2f < 0.99", quick, c.tb.ID, label, u*100, a)
						}
					} else {
						p := 1 - math.Pow(1-u, float64(h))
						if tol := 4*math.Sqrt(p*(1-p)/float64(trials)) + 0.01; math.Abs(a-p) > tol {
							t.Errorf("quick=%v %s %q at %.0f%%: served %.2f, closed form %.3f ± %.3f", quick, c.tb.ID, label, u*100, a, p, tol)
						}
					}
					if j > 0 && a < row[j-1] {
						t.Errorf("quick=%v %s %q: %.2f at %.0f%% below %.2f at %.0f%%", quick, c.tb.ID, label, a, u*100, row[j-1], uptimes[j-1]*100)
					}
					if c.tb == e7 && h > 0 && i > 0 && a < cells[i-1][j] {
						t.Errorf("quick=%v E7 at %.0f%%: %s replicas serve %.2f, below %s replicas' %.2f", quick, u*100, label, a, c.tb.Rows[i-1][0], cells[i-1][j])
					}
				}
			}
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

// anchorsDemoEntries publishes a0 on one timeline and b0, anchored to a0, on
// another, and reports whether HappensBefore proves a0 came first.
func anchorsDemoEntries() (ordered bool, err error) {
	a, err := identity.NewUser("a")
	if err != nil {
		return false, err
	}
	b, err := identity.NewUser("b")
	if err != nil {
		return false, err
	}
	ta := integrity.NewTimeline(a)
	tb := integrity.NewTimeline(b)
	if _, err := ta.Publish([]byte("a0")); err != nil {
		return false, err
	}
	anchor, err := ta.AnchorFor()
	if err != nil {
		return false, err
	}
	if _, err := tb.Publish([]byte("b0"), anchor); err != nil {
		return false, err
	}
	resolve := func(author string) []*hashchain.Entry {
		if author == "a" {
			return ta.Entries()
		}
		return tb.Entries()
	}
	return hashchain.HappensBefore("a", 0, "b", 0, resolve), nil
}
