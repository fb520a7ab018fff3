package scrub

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// extraAllocations runs pass and then baseline once each with every
// allocation recorded (runtime.MemProfileRate 1) and describes the stacks
// that allocated more objects in pass than in baseline, the most first. An
// allocation pin that compares two runs logs it when they differ, so a
// failure names what allocated instead of a bare count.
func extraAllocations(pass, baseline func()) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// One call site for both runs, so their stacks compare equal.
	var objects [2]map[[32]uintptr]int64
	var mallocs [2]uint64
	for i, f := range [...]func(){pass, baseline} {
		objects[i], mallocs[i] = profiledRun(f)
	}
	got, want := objects[0], objects[1]
	type extra struct {
		frames  []string
		objects int64
	}
	var extras []extra
	for stack, n := range got {
		if d := n - want[stack]; d > 0 {
			if frames, own := stackFrames(stack); !own {
				extras = append(extras, extra{frames, d})
			}
		}
	}
	slices.SortFunc(extras, func(a, b extra) int { return int(b.objects - a.objects) })
	var out strings.Builder
	fmt.Fprintf(&out, "re-run with every allocation recorded: %d mallocs, baseline %d", mallocs[0], mallocs[1])
	if len(extras) == 0 {
		out.WriteString("; no stack allocated more than in the baseline")
	}
	for _, e := range extras {
		fmt.Fprintf(&out, "\n+%d objects at:", e.objects)
		for _, f := range e.frames {
			out.WriteString("\n\t" + f)
		}
	}
	return out.String()
}

// stackFrames renders up to 12 frames of a profiled stack; own reports a
// stack of the profiling itself (allocProfile's maps and records).
func stackFrames(stack [32]uintptr) (frames []string, own bool) {
	pcs := stack[:]
	if i := slices.Index(pcs, 0); i >= 0 {
		pcs = pcs[:i]
	}
	iter := runtime.CallersFrames(pcs)
	for more := true; more; {
		var f runtime.Frame
		f, more = iter.Next()
		own = own || strings.HasSuffix(f.Function, ".allocProfile")
		if f.Function != "" && len(frames) < 12 {
			frames = append(frames, fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line))
		}
	}
	return frames, own
}

// profiledRun runs f once and returns the objects each allocating stack made
// during it and the process's malloc count across it. runtime.GC publishes
// the allocation profile up to its cycle, so one runs before f and one after.
func profiledRun(f func()) (map[[32]uintptr]int64, uint64) {
	before := allocProfile()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	after := allocProfile()
	for stack, n := range before {
		after[stack] -= n
	}
	return after, m1.Mallocs - m0.Mallocs
}

// allocProfile returns the objects allocated so far per stack.
func allocProfile() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var records []runtime.MemProfileRecord
	for ok := false; !ok; {
		records = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(records, true)
	}
	objects := make(map[[32]uintptr]int64, n)
	for _, r := range records[:n] {
		objects[r.Stack0] += r.AllocObjects
	}
	return objects
}

var allocSink [][]byte

//go:noinline
func allocateExtra(n int) {
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, 64))
	}
}

// TestExtraAllocationsNamesTheStack: the helper the clean-pass pin logs on a
// mismatch names the function behind the objects one run made beyond the
// other, and never charges its own profiling. Two empty runs may still show
// the runtime's background goroutines (the scavenger's timer, the unique
// package's cleanup), which wake after the helper's collections; they are
// what the helper exists to show, so only this package's frames are ruled
// out there.
func TestExtraAllocationsNamesTheStack(t *testing.T) {
	defer func() { allocSink = nil }()
	report := extraAllocations(func() { allocateExtra(3) }, func() {})
	if !strings.Contains(report, "scrub.allocateExtra") || !strings.Contains(report, "+3 objects") {
		t.Fatalf("report does not name the extra allocations:\n%s", report)
	}
	if report := extraAllocations(func() {}, func() {}); strings.Contains(report, "internal/resilience/scrub.") {
		t.Fatalf("report of two empty runs charges this package:\n%s", report)
	}
}
