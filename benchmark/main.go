// Command benchmark is the repository's perf ledger: a wall-clock benchmark
// of the sealed DOSN data path (privacy seal -> scrub record ->
// resilience.KV -> dht.DHT -> simnet) on four closed-loop workloads, with
// per-layer attribution from spans recorded in this directory's own files.
// It claims no gain; it is the instrument later changes are measured with.
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 10

// environment is recorded with every result set: wall numbers belong to the
// host that produced them.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// resultSet is benchmark/out/results.json: one untraced and one traced run
// of every workload.
type resultSet struct {
	Env       environment           `json:"env"`
	Workloads map[string]*setResult `json:"workloads"`
}

type setResult struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's JSON result line")
		seed         = flag.Int64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "on-clock seconds to measure per run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced repetitions")
		all          = flag.Bool("all", false, "run every workload untraced and traced and write results.json and the span files")
		smoke        = flag.Bool("smoke", false, "run every workload at 1/100 size, traced path included")
		compare      = flag.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace-<workload>.jsonl")
	)
	flag.Parse()
	// The numbers are only comparable under the runtime's defaults.
	for _, name := range []string{"GOGC", "GOMEMLIMIT", "GOMAXPROCS"} {
		if v, ok := os.LookupEnv(name); ok {
			fatalf(2, "refusing to run with %s=%q set: unset it", name, v)
		}
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf(2, "usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *smoke:
		if _, err := runSet(*seed, 0, 100, ""); err != nil {
			fatalf(1, "%v", err)
		}
	case *all:
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf(2, "%v", err)
		}
		set, err := runSet(*seed, *seconds, 1, *outDir)
		if err != nil {
			fatalf(1, "%v", err)
		}
		if err := writeJSON(filepath.Join(*outDir, "results.json"), set); err != nil {
			fatalf(2, "%v", err)
		}
	case *workloadName != "":
		sp, ok := specByName(*workloadName)
		if !ok {
			fatalf(2, "unknown workload %q", *workloadName)
		}
		traceDir := ""
		if *trace == 1 {
			traceDir = *outDir
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				fatalf(2, "%v", err)
			}
		}
		t0 := time.Now()
		res, err := runWorkload(sp, *seed, float64(*seconds), *trace == 1, traceDir)
		if err != nil {
			fatalf(1, "%v", err)
		}
		printRun(res, time.Since(t0))
		if !res.Correct {
			fatalf(1, "%s: outputs are not correct", sp.name)
		}
		printDriverLine(res)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// printDriverLine prints the one JSON object the driver reads from the last
// line of standard output.
func printDriverLine(res *runResult) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for name, mv := range res.Metrics {
		mv.Samples = nil // value and unit only
		line.Metrics[name] = mv
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf(2, "%v", err)
	}
	fmt.Println(string(b))
}

// runSet runs every workload, untraced then traced, shrunk by div. It fails
// on any incorrect output.
func runSet(seed int64, seconds, div int, traceDir string) (*resultSet, error) {
	set := &resultSet{
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: seed, Seconds: seconds,
		},
		Workloads: map[string]*setResult{},
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n",
		set.Env.NumCPU, set.Env.GOMAXPROCS, set.Env.GoVersion, set.Env.Commit, seed, seconds)
	for _, sp := range specs {
		if div > 1 {
			sp = sp.scaled(div)
		}
		sr := &setResult{}
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			res, err := runWorkload(sp, seed, float64(seconds), traced, traceDir)
			if err != nil {
				return nil, err
			}
			printRun(res, time.Since(t0))
			if !res.Correct {
				return nil, fmt.Errorf("%s: outputs are not correct: %s", sp.name, strings.Join(res.Problems, "; "))
			}
			if traced {
				sr.PerLayer = res
			} else {
				sr.EndToEnd = res
			}
		}
		set.Workloads[sp.name] = sr
	}
	return set, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}
