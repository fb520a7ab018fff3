package bench

import (
	"fmt"

	"godosn/internal/overlay/loctree"
)

// E15LocationTree measures the Vis-à-Vis location-tree claim ("efficient and
// scalable sharing", Section II-B): region-query cost tracks the matching
// subtree, not the total population.
func E15LocationTree(quick bool) (*Table, error) {
	populations := []int{100, 1000, 10000}
	if quick {
		populations = []int{100, 1000}
	}
	t := &Table{
		ID:     "E15",
		Title:  "Vis-à-Vis location tree: region query cost vs population",
		Header: []string{"population", "users in /tr", "nodes visited (/tr)", "nodes visited (/)"},
	}
	for _, n := range populations {
		tr := loctree.New()
		// 5% of users are in /tr districts; the rest spread over /us cities.
		inTR := n / 20
		for i := 0; i < inTR; i++ {
			if _, err := tr.Register(fmt.Sprintf("tr-user-%d", i), fmt.Sprintf("/tr/district-%d", i%8)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n-inTR; i++ {
			if _, err := tr.Register(fmt.Sprintf("us-user-%d", i), fmt.Sprintf("/us/city-%d", i%50)); err != nil {
				return nil, err
			}
		}
		resTR, err := tr.Query("/tr")
		if err != nil {
			return nil, err
		}
		resAll, err := tr.Query("/")
		if err != nil {
			return nil, err
		}
		if len(resAll.Users) != n {
			return nil, fmt.Errorf("bench: population mismatch: %d != %d", len(resAll.Users), n)
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(len(resTR.Users)),
			fmt.Sprint(resTR.NodesVisited), fmt.Sprint(resAll.NodesVisited))
	}
	t.AddNote("the /tr query touches only the /tr subtree (≤ 10 region nodes) regardless of how many users live under /us — the scalable-sharing property")
	return t, nil
}
