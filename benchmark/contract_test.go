package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root is the contract later changes are
// judged by; it must name exactly the workloads and metrics this program
// runs and prints.
func TestContractMatchesProgram(t *testing.T) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var contract struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	var workloads []namedWhy
	for _, sp := range specs {
		workloads = append(workloads, namedWhy{sp.name, sp.why})
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", sp.name, len(sp.why))
		}
	}
	if !reflect.DeepEqual(contract.Workloads, workloads) {
		t.Errorf("workloads: BENCHMARK.json has %+v, program has %+v", contract.Workloads, workloads)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, program has %+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, program has %+v", contract.PerLayer, perLayer)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", contract.RunSeconds, defaultSeconds)
	}
}
