// Command pairs times two revisions of the repository against each other on
// one benchmark workload, in alternating pairs, and summarises every
// end-to-end metric BENCHMARK.json names, each run as long as it sets. Run
// it from the repository root:
//
//	go run ./tools/pairs -a <rev> -b <rev|worktree> -w <workload> [-n 10] [-seed 11]
//
// or `make pairs A=<rev> B=<rev|worktree> W=<workload> N=10 SEED=11`.
//
// Each revision is checked out as a detached git worktree under .pairs/ in
// the checkout (kept for the next call, so its build cache stays warm); -b
// worktree instead snapshots the working tree's tracked and untracked,
// non-ignored files into .pairs/worktree, so later edits do not reach a run.
// Each side runs its own benchmark/run.sh, which builds that side from its
// own sources. Pair i runs A then B when i is even and B then A when it is
// odd. Every run's output is kept in .pairs/runs/, its result line (the last
// line) included.
//
// Per metric it prints each side's median and quartiles, the change of the
// medians, and in how many pairs B reads better than A, then a verdict under
// the rules a claim must meet:
//
//   - a count (units count, B, MB), rounded to the five significant digits
//     the ledger carries, is equal when every run of both sides reads the
//     same, and moved only when every B run reads better (or worse) than
//     every A run;
//   - a time (units s, 1/s, us) needs the change of the medians past the
//     metric's bound, or at least ten pairs with B better in nine tenths of
//     them and the medians further apart than A's quartile spread.
//
// Like the benchmark, it refuses to run with GOGC, GOMAXPROCS or GOMEMLIMIT
// set, and it fails when any run is incorrect or has failed operations.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	a := flag.String("a", "", "revision A (the parent): any git revision")
	b := flag.String("b", "", `revision B (the change): a git revision, or "worktree" for the working tree`)
	w := flag.String("w", "", "benchmark workload")
	n := flag.Int("n", 10, "pairs")
	seed := flag.Int64("seed", 11, "benchmark seed")
	flag.Parse()
	for _, name := range []string{"GOGC", "GOMEMLIMIT", "GOMAXPROCS"} {
		if v, ok := os.LookupEnv(name); ok {
			fatalf(2, "refusing to run with %s=%q set: unset it", name, v)
		}
	}
	if *a == "" || *b == "" || *w == "" || *n < 1 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := gitOut(".", "rev-parse", "--show-toplevel")
	if err != nil {
		fatalf(2, "%v", err)
	}
	metrics, seconds, err := readContract(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatalf(2, "%v", err)
	}
	sides := [2]*side{{label: "A", rev: *a}, {label: "B", rev: *b}}
	for _, s := range sides {
		if err := s.checkout(root); err != nil {
			fatalf(2, "%s: %v", s.label, err)
		}
		fmt.Printf("%s: %s in %s\n", s.label, s.name, s.dir)
	}
	logDir := filepath.Join(root, ".pairs", "runs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		fatalf(2, "%v", err)
	}
	args := []string{"--workload", *w, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
	bad := false
	for i := range *n {
		order := sides
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			log := filepath.Join(logDir, fmt.Sprintf("%s-%d-%s-pair%02d-%s.log", *w, *seed, s.name, i, s.label))
			r, err := s.run(args, log)
			if err != nil {
				fatalf(1, "pair %d, %s: %v (output in %s)", i, s.label, err, log)
			}
			if !r.Correct || r.Failed != 0 {
				bad = true
			}
			s.runs = append(s.runs, r)
			fmt.Printf("pair %d/%d %s: correct=%v failed=%d %s\n", i+1, *n, s.label, r.Correct, r.Failed, brief(r, metrics))
		}
	}
	fmt.Printf("\n%s, seed %d, %d s a run, %d pairs: A %s, B %s\n", *w, *seed, seconds, *n, sides[0].name, sides[1].name)
	report(os.Stdout, metrics, sides[0].runs, sides[1].runs)
	if bad {
		fatalf(1, "a run was incorrect or had failed operations")
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pairs: "+format+"\n", args...)
	os.Exit(code)
}

// metric is one end-to-end metric of the benchmark contract.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// count reports whether m counts something, nearly the same on every run,
// rather than timing it.
func (m metric) count() bool { return m.Unit == "count" || m.Unit == "B" || m.Unit == "MB" }

// better reports whether b reads better than a on m.
func (m metric) better(a, b float64) bool {
	if m.Better == "lower" {
		return b < a
	}
	return b > a
}

// readContract reads the end-to-end metrics and the seconds a run takes
// from the benchmark contract.
func readContract(path string) ([]metric, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var c struct {
		RunSeconds int      `json:"run_seconds"`
		EndToEnd   []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 || c.RunSeconds < 1 {
		return nil, 0, fmt.Errorf("%s names no end-to-end metric or no run length", path)
	}
	return c.EndToEnd, c.RunSeconds, nil
}

// side is one revision: where it is checked out and the runs it made.
type side struct {
	label, rev string
	name, dir  string // short commit (or "worktree") and its checkout
	runs       []resultLine
}

// resultLine is the JSON object a benchmark run prints last.
type resultLine struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// checkout makes s's tree under root/.pairs: a detached worktree of its
// commit, reused when present, or a fresh snapshot of the working tree.
func (s *side) checkout(root string) error {
	if s.rev == "worktree" {
		s.name, s.dir = "worktree", filepath.Join(root, ".pairs", "worktree")
		return snapshot(root, s.dir)
	}
	sha, err := gitOut(root, "rev-parse", "--verify", "--quiet", s.rev+"^{commit}")
	if err != nil {
		return fmt.Errorf("no commit %q", s.rev)
	}
	s.name, s.dir = sha[:12], filepath.Join(root, ".pairs", sha[:12])
	if _, err := os.Stat(filepath.Join(s.dir, "benchmark", "run.sh")); err == nil {
		return nil
	}
	_, err = gitOut(root, "worktree", "add", "--detach", s.dir, sha)
	return err
}

// snapshot copies the working tree's tracked and untracked, non-ignored
// files into dir, replacing what an earlier snapshot left there except the
// build cache.
func snapshot(root, dir string) error {
	old, _ := os.ReadDir(dir)
	for _, e := range old {
		if e.Name() != ".bench_build" {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	list, err := gitOut(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return err
	}
	for _, rel := range strings.Split(list, "\x00") {
		if rel == "" || strings.HasPrefix(rel, ".pairs/") {
			continue
		}
		if err := copyFile(filepath.Join(root, rel), filepath.Join(dir, rel)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	info, err := os.Lstat(from)
	if os.IsNotExist(err) {
		return nil // tracked but deleted in the working tree
	}
	if err != nil || !info.Mode().IsRegular() {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return err
	}
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(to, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, info.Mode().Perm())
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// run runs s's own benchmark/run.sh with args, keeps its output in log and
// parses the result line.
func (s *side) run(args []string, log string) (resultLine, error) {
	var out bytes.Buffer
	cmd := exec.Command("bash", append([]string{filepath.Join(s.dir, "benchmark", "run.sh")}, args...)...)
	cmd.Dir = s.dir
	cmd.Stdout = &out
	cmd.Stderr = &out
	runErr := cmd.Run()
	if err := os.WriteFile(log, out.Bytes(), 0o644); err != nil {
		return resultLine{}, err
	}
	if runErr != nil {
		return resultLine{}, runErr
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return resultLine{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// brief is one run's time metrics, for the progress line.
func brief(r resultLine, metrics []metric) string {
	var parts []string
	for _, m := range metrics {
		if !m.count() {
			parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, r.Metrics[m.Name].Value))
		}
	}
	return strings.Join(parts, " ")
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// summary is one metric's reading over the pairs.
type summary struct {
	m            metric
	a, b         [3]float64 // quartiles: first, median, third
	change       float64    // (median b − median a) / median a
	wins, losses int        // pairs where b reads better, and worse
	pairs        int
	runsA, runsB []float64 // every run, in pair order
	verdict      string
}

func summarize(m metric, a, b []float64) summary {
	if m.count() {
		a, b = significant(a), significant(b)
	}
	s := summary{m: m, pairs: len(a), runsA: a, runsB: b}
	s.a[0], s.a[1], s.a[2] = quartiles(a)
	s.b[0], s.b[1], s.b[2] = quartiles(b)
	if s.a[1] != 0 {
		s.change = (s.b[1] - s.a[1]) / s.a[1]
	}
	for i := range a {
		switch {
		case m.better(a[i], b[i]):
			s.wins++
		case m.better(b[i], a[i]):
			s.losses++
		}
	}
	s.verdict = s.judge()
	return s
}

// significant rounds each count to the five significant digits the
// benchmark's ledger rows carry (1 192.2 B, 2.7565 allocs): past them a
// count moves with how many operations fit the run, not with the code.
func significant(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x != 0 {
			scale := math.Pow(10, 4-math.Floor(math.Log10(math.Abs(x))))
			x = math.Round(x*scale) / scale
		}
		out[i] = x
	}
	return out
}

// judge applies the claim rules to s.
func (s summary) judge() string {
	direction := func(better bool) string {
		if better {
			return "B better"
		}
		return "B worse"
	}
	if s.m.count() {
		beats := func(xs, ys []float64) bool { // every x reads better than every y
			for _, x := range xs {
				for _, y := range ys {
					if !s.m.better(y, x) {
						return false
					}
				}
			}
			return true
		}
		switch all := append(slices.Clone(s.runsA), s.runsB...); {
		case slices.Min(all) == slices.Max(all):
			return "equal"
		case beats(s.runsB, s.runsA):
			return "B better in every run"
		case beats(s.runsA, s.runsB):
			return "B worse in every run"
		}
		return "overlaps: not claimed"
	}
	if math.Abs(s.change) > s.m.Bound {
		return direction(s.m.better(s.a[1], s.b[1])) + " beyond the bound"
	}
	spread := s.a[2] - s.a[0]
	apart := math.Abs(s.b[1]-s.a[1]) > spread
	switch {
	case s.pairs < 10:
		return fmt.Sprintf("not claimed: %d pairs, a time needs 10", s.pairs)
	case 10*s.wins >= 9*s.pairs && apart:
		return "B better"
	case 10*s.losses >= 9*s.pairs && apart:
		return "B worse"
	}
	return "not claimed"
}

// report prints one line per metric the runs carry.
func report(w io.Writer, metrics []metric, a, b []resultLine) {
	fmt.Fprintf(w, "%-20s %-5s %-32s %-32s %8s %-14s %s\n", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "change", "B better in", "verdict")
	for _, m := range metrics {
		va, vb := values(a, m.Name), values(b, m.Name)
		if va == nil || vb == nil {
			continue
		}
		s := summarize(m, va, vb)
		fmt.Fprintf(w, "%-20s %-5s %-32s %-32s %+7.2f%% %-14s %s\n", m.Name, m.Unit, spread(s.a), spread(s.b), 100*s.change,
			fmt.Sprintf("%d of %d", s.wins, s.pairs), s.verdict)
	}
}

// values is every run's reading of name, or nil when a run lacks it.
func values(runs []resultLine, name string) []float64 {
	var out []float64
	for _, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		out = append(out, v.Value)
	}
	return out
}

func spread(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g %.6g]", q[1], q[0], q[2])
}
