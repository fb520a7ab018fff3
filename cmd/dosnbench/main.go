// Command dosnbench runs the experiment harness: every experiment of
// DESIGN.md's per-experiment index (E1–E26), printed as aligned tables.
//
// Usage:
//
//	dosnbench                   # run everything (full parameters)
//	dosnbench -exp e1,e6        # run selected experiments
//	dosnbench -quick            # reduced parameters (seconds, for smoke runs)
//	dosnbench -parallel 4       # run independent experiments concurrently
//	dosnbench -json out.json    # also write machine-readable metrics
//	dosnbench -validate f.json  # smoke-parse a previously written report
//	dosnbench -list             # list experiments
//	dosnbench -exp e23 -memprofile m.out -cpuprofile c.out  # runtime/pprof profiles, written at exit
//
// Chaos-scenario modes (mutually exclusive with each other; see
// internal/scenario):
//
//	dosnbench -scenario 'scenarios/*.scenario'   # replay files (globs/commas), enforce invariants
//	dosnbench -scenario f.scenario -trace-out t.jsonl  # also leave a JSONL trace artifact
//	dosnbench -scenario f.scenario -trace-out tcp://localhost:4318  # stream it instead
//	dosnbench -scenario f.scenario -scenario-report  # print the per-window breakdown
//	dosnbench -scenario-record-library scenarios # (re)record the builtin library into a directory
//	dosnbench -scenario-minimize failing.scenario # shrink a failing scenario, write .min.scenario
//
// -trace-out accepts a file path, file://path, tcp://host:port, or
// unix:///path; an otlp+ prefix (e.g. otlp+tcp://host:port) switches the
// stream to OTLP-shaped JSON. A failing replay always prints its
// guilty-window localization; -scenario-report adds the full per-window
// table whether or not the scenario failed.
//
// Exit codes: 0 success, 1 failed invariants / failed runs, 2 malformed
// scenario files or invalid flags.
//
// Experiments are independent (own seeds, own simulated networks), and
// -parallel buffers each experiment's output, so tables print in registry
// order and byte-identically at any parallelism level.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"godosn/internal/bench"
	"godosn/internal/scenario"
	"godosn/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		expFlag      = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		quickFlag    = flag.Bool("quick", false, "reduced parameters for a fast smoke run")
		listFlag     = flag.Bool("list", false, "list available experiments")
		parallelFlag = flag.Int("parallel", 1, "number of experiments to run concurrently (0 = all CPUs)")
		jsonFlag     = flag.String("json", "", "write machine-readable per-experiment metrics to this file")
		validateFlag = flag.String("validate", "", "validate a -json report file and exit")

		scenarioFlag      = flag.String("scenario", "", "replay .scenario files (comma-separated paths/globs) and enforce their invariants")
		recordLibraryFlag = flag.String("scenario-record-library", "", "record the builtin scenario library into this directory")
		minimizeFlag      = flag.String("scenario-minimize", "", "minimize a failing .scenario file, writing <name>.min.scenario next to it")
		traceOutFlag      = flag.String("trace-out", "", "emit a telemetry trace of a single -scenario replay: file path, tcp://host:port, unix:///path, optional otlp+ prefix")
		scenarioRptFlag   = flag.Bool("scenario-report", false, "with -scenario: print each replay's per-window time-series breakdown")

		cpuProfileFlag = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfileFlag = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfileFlag, *memProfileFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			code = max(code, 1)
		}
	}()

	scenarioModes := 0
	for _, f := range []string{*scenarioFlag, *recordLibraryFlag, *minimizeFlag} {
		if f != "" {
			scenarioModes++
		}
	}
	if scenarioModes > 1 {
		fmt.Fprintf(os.Stderr, "dosnbench: -scenario, -scenario-record-library and -scenario-minimize are mutually exclusive\n")
		return 2
	}
	if *traceOutFlag != "" && *scenarioFlag == "" {
		fmt.Fprintf(os.Stderr, "dosnbench: -trace-out requires -scenario\n")
		return 2
	}
	if *scenarioRptFlag && *scenarioFlag == "" {
		fmt.Fprintf(os.Stderr, "dosnbench: -scenario-report requires -scenario\n")
		return 2
	}
	if *scenarioFlag != "" {
		return runScenarios(*scenarioFlag, *traceOutFlag, *scenarioRptFlag)
	}
	if *recordLibraryFlag != "" {
		return recordLibrary(*recordLibraryFlag)
	}
	if *minimizeFlag != "" {
		return minimizeScenario(*minimizeFlag)
	}

	if *validateFlag != "" {
		data, err := os.ReadFile(*validateFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			return 1
		}
		report, err := bench.ValidateReport(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			return 1
		}
		fmt.Printf("dosnbench: %s is a valid report (%d experiments)\n", *validateFlag, len(report.Experiments))
		return 0
	}

	if *listFlag {
		for _, e := range bench.All() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Description)
		}
		return 0
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			e, ok := bench.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "dosnbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("godosn experiment harness (%d experiments, quick=%v, parallel=%d)\n", len(selected), *quickFlag, *parallelFlag)
	results, err := bench.RunSelected(selected, *quickFlag, *parallelFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 1
	}
	for _, r := range results {
		fmt.Print(r.Output)
	}

	if *jsonFlag != "" {
		f, err := os.Create(*jsonFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			return 1
		}
		report := bench.BuildReport(results, *quickFlag)
		werr := report.WriteJSON(f)
		cerr := f.Close()
		if werr != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", werr)
			return 1
		}
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", cerr)
			return 1
		}
		fmt.Printf("\nwrote %s (%d experiments)\n", *jsonFlag, len(report.Experiments))
	}
	return 0
}

// expandScenarioArgs resolves the -scenario value (comma-separated paths
// and/or globs) to a sorted, de-duplicated file list.
func expandScenarioArgs(arg string) ([]string, error) {
	seen := make(map[string]bool)
	var files []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.ContainsAny(part, "*?[") {
			matches, err := filepath.Glob(part)
			if err != nil {
				return nil, fmt.Errorf("bad glob %q: %w", part, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("glob %q matches no files", part)
			}
			for _, m := range matches {
				if !seen[m] {
					seen[m] = true
					files = append(files, m)
				}
			}
			continue
		}
		if !seen[part] {
			seen[part] = true
			files = append(files, part)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("-scenario %q names no files", arg)
	}
	sort.Strings(files)
	return files, nil
}

// loadScenario reads and strictly parses one .scenario file.
func loadScenario(path string) (*scenario.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", scenario.ErrScenario, path, err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// runScenarios replays every named scenario file through the full protocol
// (run-twice and workers-1-vs-8 determinism, invariants, pinned counters).
// Exit 2 on malformed files, 1 on any failed check, 0 when all pass.
func runScenarios(arg, traceOut string, windowReport bool) int {
	files, err := expandScenarioArgs(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 2
	}
	if traceOut != "" && len(files) != 1 {
		fmt.Fprintf(os.Stderr, "dosnbench: -trace-out wants exactly one scenario, got %d\n", len(files))
		return 2
	}

	failed := 0
	for _, path := range files {
		sc, err := loadScenario(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			return 2
		}
		report, err := scenario.Replay(sc)
		if err != nil {
			// Engine-level failure (e.g. determinism divergence).
			fmt.Fprintf(os.Stderr, "dosnbench: %s: %v\n", path, err)
			return 1
		}
		res := report.Result
		status := "PASS"
		if report.Failed() {
			status = "FAIL"
			failed++
		}
		fmt.Printf("scenario %-20s %s  events=%d served=%.4f p99=%.1fms sheds=%d digest=%016x\n",
			sc.Name, status, len(sc.Events), res.ServedRate(), res.P99MS(), res.ServerSheds, res.Digest)
		for _, v := range report.Violations {
			fmt.Printf("  violation %s\n", v)
		}
		for _, g := range report.Guilty {
			fmt.Printf("  guilty %s\n", g)
		}
		if windowReport {
			scenario.WriteWindowBreakdown(os.Stdout, res)
			fmt.Printf("end of run: %d written keys under-replicated, %d corrupt copies\n",
				res.FinalUnderReplicated, res.FinalCorruptCopies)
		}
		if traceOut != "" {
			if code := writeScenarioTrace(sc, traceOut); code != 0 {
				return code
			}
		}
	}
	if failed > 0 {
		fmt.Printf("%d of %d scenarios failed\n", failed, len(files))
		return 1
	}
	fmt.Printf("%d scenarios passed\n", len(files))
	return 0
}

// writeScenarioTrace runs the scenario once more with a telemetry sink
// attached — file, socket, or OTLP-shaped per the spec — and reports the
// artifact. The traced run is identical to the replay runs (tracing is
// nil-safe annotation on the same code path, and socket sinks drop rather
// than block).
func writeScenarioTrace(sc *scenario.Scenario, spec string) int {
	sink, err := telemetry.OpenSink(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 1
	}
	_, rerr := scenario.Run(sc, scenario.RunConfig{Workers: 1, Trace: sink})
	records := sink.Records()
	dropped := sink.Dropped()
	cerr := sink.Close()
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: trace run: %v\n", rerr)
		return 1
	}
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: trace sink: %v\n", cerr)
		return 1
	}
	if dropped > 0 {
		fmt.Printf("wrote %s (%d records, %d dropped)\n", spec, records, dropped)
	} else {
		fmt.Printf("wrote %s (%d records)\n", spec, records)
	}
	return 0
}

// recordLibrary records every builtin scenario into dir as canonical
// .scenario files (creating dir if needed).
func recordLibrary(dir string) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 1
	}
	for _, cfg := range scenario.BuiltinLibrary() {
		sc, rep, err := scenario.Record(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			return 1
		}
		path := filepath.Join(dir, sc.Name+".scenario")
		if err := os.WriteFile(path, sc.Format(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
			return 1
		}
		fmt.Printf("recorded %-40s events=%d invariants=%d served=%.4f\n",
			path, len(sc.Events), len(sc.Invariants), rep.Result.ServedRate())
	}
	return 0
}

// minimizeScenario shrinks a failing scenario file and writes the minimal
// reproduction next to it as <name>.min.scenario. A scenario that passes
// its invariants is an operational error (exit 1); a malformed file exits 2.
func minimizeScenario(path string) int {
	sc, err := loadScenario(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 2
	}
	min, err := scenario.Minimize(sc, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		if errors.Is(err, scenario.ErrScenario) && !errors.Is(err, scenario.ErrScenarioPasses) {
			return 2
		}
		return 1
	}
	out := strings.TrimSuffix(path, ".scenario") + ".min.scenario"
	if err := os.WriteFile(out, min.Scenario.Format(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dosnbench: %v\n", err)
		return 1
	}
	fmt.Printf("minimized %s: %d -> %d events in %d runs (violated: %v)\nwrote %s\n",
		path, min.OriginalEvents, min.MinimizedEvents, min.Runs, min.Violated, out)
	return 0
}
