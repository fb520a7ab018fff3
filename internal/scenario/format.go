package scenario

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file is the .scenario wire format: a line-oriented, human-diffable
// text form with exactly one canonical spelling per scenario. Parse is
// strict — unknown directives, unknown parameters, missing required
// parameters, duplicates, and range violations are all errors (dosnbench
// exits 2) — and Format always emits the canonical form, so
// Format(Parse(Format(s))) == Format(s) and committed files can be checked
// byte-for-byte against their recorded definition.
//
// Layout:
//
//	# godosn scenario v1
//	scenario <name>
//	seed <int>
//	ticks <int>
//	nodes <int>
//	replication <int>
//	users <int>
//	ops-per-tick <int>
//	readers <int>            (only when > 0)
//	heal-every <int>         (only when > 0)
//	node-gate <per-tick> <queue>  (only when gated)
//	sweep <budget> <chunk>   (only when the scrub sweeper runs)
//	weighting graph          (only when graph-weighted)
//	event <tick> <kind> k=v ...   (params in fixed per-kind order)
//	invariant <kind> [value]
//	expect digest=<16-hex> writes=<n> reads=<n> not-found=<n> failed=<n> detected=<n> repaired=<n>

// header is the mandatory first non-blank line.
const header = "# godosn scenario v1"

// paramOrder is the canonical (and only accepted) parameter set per kind,
// in emission order.
var paramOrder = map[EventKind][]string{
	KindChurn:     {"frac", "dur"},
	KindCrash:     {"frac", "dur"},
	KindPartition: {"groups", "dur"},
	KindOverload:  {"frac", "capacity", "queue", "dur"},
	KindByzantine: {"frac", "mode", "rate", "dur"},
	KindLoss:      {"rate", "dur"},
	KindRevoke:    {"count"},
	KindCelebrity: {"frac", "dur"},
	KindRot:       {"count"},
}

// fmtFloat renders a float canonically (shortest round-trip form).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Format renders the scenario in canonical form. The scenario must be
// valid; Format normalizes event/invariant order itself.
func (s *Scenario) Format() []byte {
	c := s.Clone()
	c.Normalize()
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", header)
	fmt.Fprintf(&b, "scenario %s\n", c.Name)
	fmt.Fprintf(&b, "seed %d\n", c.Seed)
	fmt.Fprintf(&b, "ticks %d\n", c.Ticks)
	fmt.Fprintf(&b, "nodes %d\n", c.Nodes)
	fmt.Fprintf(&b, "replication %d\n", c.Replication)
	fmt.Fprintf(&b, "users %d\n", c.Users)
	fmt.Fprintf(&b, "ops-per-tick %d\n", c.OpsPerTick)
	if c.Readers > 0 {
		fmt.Fprintf(&b, "readers %d\n", c.Readers)
	}
	if c.HealEvery > 0 {
		fmt.Fprintf(&b, "heal-every %d\n", c.HealEvery)
	}
	if c.GatePerTick > 0 {
		fmt.Fprintf(&b, "node-gate %d %d\n", c.GatePerTick, c.GateQueue)
	}
	if c.SweepChunk > 0 {
		fmt.Fprintf(&b, "sweep %d %d\n", c.SweepBudget, c.SweepChunk)
	}
	if c.GraphWeighted {
		fmt.Fprintf(&b, "weighting graph\n")
	}
	for _, e := range c.Events {
		fmt.Fprintf(&b, "event %d %s", e.Tick, e.Kind)
		for _, p := range paramOrder[e.Kind] {
			fmt.Fprintf(&b, " %s=%s", p, eventParam(e, p))
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, inv := range c.Invariants {
		if valuedInvariant(inv.Kind) {
			fmt.Fprintf(&b, "invariant %s %s\n", inv.Kind, fmtFloat(inv.Value))
		} else {
			fmt.Fprintf(&b, "invariant %s\n", inv.Kind)
		}
	}
	if c.Expect != nil {
		b.WriteString(c.Expect.line())
	}
	return b.Bytes()
}

// eventParam renders one event parameter value.
func eventParam(e Event, p string) string {
	switch p {
	case "frac":
		return fmtFloat(e.Frac)
	case "dur":
		return strconv.Itoa(e.Dur)
	case "groups":
		return strconv.Itoa(e.Groups)
	case "capacity":
		return strconv.Itoa(e.Capacity)
	case "queue":
		return strconv.Itoa(e.Queue)
	case "mode":
		return e.Mode
	case "rate":
		return fmtFloat(e.Rate)
	case "count":
		return strconv.Itoa(e.Count)
	}
	return "?"
}

// parser carries line-position context for error messages.
type parser struct {
	s    *Scenario
	set  map[string]bool // directives seen (duplicate detection)
	line int
}

// pfail builds a line-tagged parse error.
func (p *parser) pfail(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrScenario, p.line, fmt.Sprintf(format, args...))
}

// Parse reads a .scenario file strictly and validates the result.
func Parse(data []byte) (*Scenario, error) {
	p := &parser{s: &Scenario{}, set: make(map[string]bool)}
	sawHeader := false
	for _, raw := range strings.Split(string(data), "\n") {
		p.line++
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if !sawHeader {
			if line != header {
				return nil, p.pfail("first line must be %q", header)
			}
			sawHeader = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := p.directive(fields); err != nil {
			return nil, err
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: empty file (missing %q)", ErrScenario, header)
	}
	for _, req := range []string{"scenario", "seed", "ticks", "nodes", "replication", "users", "ops-per-tick"} {
		if !p.set[req] {
			return nil, fmt.Errorf("%w: missing directive %q", ErrScenario, req)
		}
	}
	p.s.Normalize()
	if err := p.s.Validate(); err != nil {
		return nil, err
	}
	return p.s, nil
}

// directive dispatches one parsed line.
func (p *parser) directive(fields []string) error {
	name := fields[0]
	args := fields[1:]
	switch name {
	case "event":
		return p.event(args)
	case "invariant":
		return p.invariant(args)
	case "expect":
		if p.set["expect"] {
			return p.pfail("duplicate expect")
		}
		p.set["expect"] = true
		return p.expect(args)
	}
	// Scalar header directives appear at most once.
	if p.set[name] {
		return p.pfail("duplicate directive %q", name)
	}
	p.set[name] = true
	switch name {
	case "scenario":
		if len(args) != 1 {
			return p.pfail("scenario wants 1 argument")
		}
		p.s.Name = args[0]
	case "seed":
		return p.int64Arg(args, &p.s.Seed)
	case "ticks":
		return p.intArg(args, &p.s.Ticks)
	case "nodes":
		return p.intArg(args, &p.s.Nodes)
	case "replication":
		return p.intArg(args, &p.s.Replication)
	case "users":
		return p.intArg(args, &p.s.Users)
	case "ops-per-tick":
		return p.intArg(args, &p.s.OpsPerTick)
	case "readers":
		return p.intArg(args, &p.s.Readers)
	case "heal-every":
		return p.intArg(args, &p.s.HealEvery)
	case "node-gate":
		if len(args) != 2 {
			return p.pfail("node-gate wants <per-tick> <queue>")
		}
		per, err1 := strconv.Atoi(args[0])
		q, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return p.pfail("node-gate wants two integers")
		}
		p.s.GatePerTick, p.s.GateQueue = per, q
	case "sweep":
		if len(args) != 2 {
			return p.pfail("sweep wants <budget> <chunk>")
		}
		budget, err1 := strconv.Atoi(args[0])
		chunk, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return p.pfail("sweep wants two integers")
		}
		p.s.SweepBudget, p.s.SweepChunk = budget, chunk
	case "weighting":
		if len(args) != 1 || args[0] != "graph" {
			return p.pfail("weighting accepts only %q (zipf is the unwritten default)", "graph")
		}
		p.s.GraphWeighted = true
	default:
		return p.pfail("unknown directive %q", name)
	}
	return nil
}

// intArg parses a single-integer directive.
func (p *parser) intArg(args []string, dst *int) error {
	if len(args) != 1 {
		return p.pfail("directive wants 1 integer argument")
	}
	v, err := strconv.Atoi(args[0])
	if err != nil {
		return p.pfail("bad integer %q", args[0])
	}
	*dst = v
	return nil
}

// int64Arg parses a single-int64 directive (seed).
func (p *parser) int64Arg(args []string, dst *int64) error {
	if len(args) != 1 {
		return p.pfail("directive wants 1 integer argument")
	}
	v, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return p.pfail("bad integer %q", args[0])
	}
	*dst = v
	return nil
}

// event parses `event <tick> <kind> k=v ...` with the exact per-kind
// parameter set required.
func (p *parser) event(args []string) error {
	if len(args) < 2 {
		return p.pfail("event wants <tick> <kind> k=v ...")
	}
	tick, err := strconv.Atoi(args[0])
	if err != nil {
		return p.pfail("bad event tick %q", args[0])
	}
	kind := EventKind(args[1])
	order, ok := paramOrder[kind]
	if !ok {
		return p.pfail("unknown event kind %q", args[1])
	}
	e := Event{Tick: tick, Kind: kind}
	seen := make(map[string]bool)
	for _, kv := range args[2:] {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return p.pfail("event parameter %q is not k=v", kv)
		}
		if seen[k] {
			return p.pfail("duplicate event parameter %q", k)
		}
		seen[k] = true
		if err := setEventParam(&e, k, v); err != nil {
			return p.pfail("%v", err)
		}
	}
	for _, req := range order {
		if !seen[req] {
			return p.pfail("%s event missing parameter %q", kind, req)
		}
	}
	if len(seen) != len(order) {
		for k := range seen {
			allowed := false
			for _, a := range order {
				if a == k {
					allowed = true
				}
			}
			if !allowed {
				return p.pfail("%s event does not take parameter %q", kind, k)
			}
		}
	}
	p.s.Events = append(p.s.Events, e)
	return nil
}

// setEventParam assigns one k=v pair.
func setEventParam(e *Event, k, v string) error {
	switch k {
	case "frac", "rate":
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("bad float %s=%q", k, v)
		}
		if k == "frac" {
			e.Frac = f
		} else {
			e.Rate = f
		}
	case "dur", "groups", "capacity", "queue", "count":
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad integer %s=%q", k, v)
		}
		switch k {
		case "dur":
			e.Dur = n
		case "groups":
			e.Groups = n
		case "capacity":
			e.Capacity = n
		case "queue":
			e.Queue = n
		case "count":
			e.Count = n
		}
	case "mode":
		e.Mode = v
	default:
		return fmt.Errorf("unknown event parameter %q", k)
	}
	return nil
}

// invariant parses `invariant <kind> [value]`.
func (p *parser) invariant(args []string) error {
	if len(args) < 1 {
		return p.pfail("invariant wants a kind")
	}
	kind := InvariantKind(args[0])
	if !knownInvariant(kind) {
		return p.pfail("unknown invariant %q", args[0])
	}
	inv := Invariant{Kind: kind}
	if valuedInvariant(kind) {
		if len(args) != 2 {
			return p.pfail("invariant %s wants a value", kind)
		}
		v, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return p.pfail("bad invariant value %q", args[1])
		}
		inv.Value = v
	} else if len(args) != 1 {
		return p.pfail("invariant %s takes no value", kind)
	}
	p.s.Invariants = append(p.s.Invariants, inv)
	return nil
}

// line renders the expect directive, newline included.
func (e *Expect) line() string {
	return fmt.Sprintf("expect digest=%016x writes=%d reads=%d not-found=%d failed=%d detected=%d repaired=%d\n",
		e.Digest, e.Writes, e.Reads, e.NotFound, e.Failed, e.Detected, e.Repaired)
}

// expect parses the pinned-counter line; exactly the seven known keys.
func (p *parser) expect(args []string) error {
	e := &Expect{}
	seen := make(map[string]bool)
	for _, kv := range args {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return p.pfail("expect field %q is not k=v", kv)
		}
		if seen[k] {
			return p.pfail("duplicate expect field %q", k)
		}
		seen[k] = true
		switch k {
		case "digest":
			d, err := strconv.ParseUint(v, 16, 64)
			if err != nil {
				return p.pfail("bad expect digest %q", v)
			}
			e.Digest = d
		case "writes", "reads", "not-found", "failed", "detected", "repaired":
			n, err := strconv.Atoi(v)
			if err != nil {
				return p.pfail("bad expect %s %q", k, v)
			}
			switch k {
			case "writes":
				e.Writes = n
			case "reads":
				e.Reads = n
			case "not-found":
				e.NotFound = n
			case "failed":
				e.Failed = n
			case "detected":
				e.Detected = n
			case "repaired":
				e.Repaired = n
			}
		default:
			return p.pfail("unknown expect field %q", k)
		}
	}
	for _, req := range []string{"digest", "writes", "reads", "not-found", "failed", "detected", "repaired"} {
		if !seen[req] {
			return p.pfail("expect missing field %q", req)
		}
	}
	p.s.Expect = e
	return nil
}
