// Command corralsim regenerates the paper's tables and figures.
//
// Usage:
//
//	corralsim -list
//	corralsim -exp fig6 -size m -seed 1
//	corralsim -exp all -size s
//
// Sizes: s (toy, seconds), m (default, scaled 7-rack cluster), l (closest
// to the paper's job counts; minutes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"corral"
)

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "corralsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	corral.SetSweepWorkers(o.workers)

	var collector *corral.TraceCollector
	if o.tracePath != "" {
		collector = corral.NewTraceCollector()
		corral.InstallTraceCollector(collector)
	}
	// writeTrace flushes the collected trace; idempotent so error paths can
	// flush before exiting without double-writing on the deferred call.
	writeTrace := func() {
		if collector == nil {
			return
		}
		c := collector
		collector = nil
		f, err := os.Create(o.tracePath)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(o.tracePath, ".jsonl") {
			err = c.WriteJSONL(f)
		} else {
			err = c.WriteChrome(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("writing trace %s: %v", o.tracePath, err))
		}
	}
	defer writeTrace()

	if o.snapshotAt != "" {
		snap, err := corral.CaptureScenarioSnapshot(o.size, o.seed, o.target)
		if err != nil {
			fatal(err)
		}
		raw, err := corral.EncodeSnapshot(snap)
		if err != nil {
			fatal(err)
		}
		out := o.snapshotOut
		if out == "" {
			out = "snapshot.json"
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: seed %d captured at event %d (t=%.3f s, %d bytes)\n",
			out, snap.Meta.Seed, snap.Meta.EventIndex, snap.Meta.SimTime, len(raw))
		return
	}

	if o.resumePath != "" {
		raw, err := os.ReadFile(o.resumePath)
		if err != nil {
			fatal(err)
		}
		snap, err := corral.DecodeSnapshot(raw)
		if err != nil {
			fatal(err)
		}
		mon := corral.NewInvariantMonitor(snap.Spec.Topology)
		res, err := corral.ResumeSnapshot(snap, corral.ResumeOptions{Probe: mon})
		if err != nil {
			fatal(err)
		}
		writeTrace()
		fmt.Printf("resumed %s from event %d (t=%.3f s): makespan %.3f s, %d events, %d jobs (%d failed), %d replans\n",
			o.resumePath, snap.Meta.EventIndex, snap.Meta.SimTime,
			res.Makespan, res.Events, len(res.Jobs), res.FailedJobs, res.Replans)
		if n := mon.ViolationCount(); n != 0 {
			fatal(fmt.Errorf("resumed run raised %d invariant violations: %v", n, mon.Violations()))
		}
		return
	}

	if o.fuzzTraces > 0 || o.exp == "fuzz" {
		report, err := corral.RunFuzzExperiment(o.size, o.seed, o.fuzzTraces)
		if err != nil {
			fatal(err)
		}
		if o.asJSON {
			emitJSON(map[string]map[string]float64{"fuzz": report.Values})
			return
		}
		fmt.Println(report)
		if report.Values["violations"] != 0 {
			writeTrace()
			fatal(fmt.Errorf("%g invariant violations", report.Values["violations"]))
		}
		return
	}

	// The scale suite exits non-zero when a cell's determinism, resume or
	// plan wall-clock budget verification fails — that is the CI gate's
	// red signal.
	if o.machines != nil || o.exp == "scale" {
		report, err := corral.RunScaleExperiment(o.size, o.seed, o.machines)
		if err != nil {
			fatal(err)
		}
		if o.asJSON {
			emitJSON(map[string]map[string]float64{"scale": report.Values})
		} else {
			fmt.Println(report)
		}
		if n := report.Values["verification_failures"]; n != 0 {
			writeTrace()
			fatal(fmt.Errorf("%g scale cells failed determinism/resume/plan verification", n))
		}
		return
	}

	if o.intensities != nil {
		report, err := corral.RunChaosExperiment(o.size, o.seed, o.intensities)
		if err != nil {
			fatal(err)
		}
		if o.asJSON {
			emitJSON(map[string]map[string]float64{"chaos": report.Values})
			return
		}
		fmt.Println(report)
		return
	}

	// The overload sweep gets its own dispatch whenever a knob or the rate
	// list is set; a bare -exp overload falls through to the registry with
	// the bundled defaults.
	if o.rates != nil || (o.exp == "overload" && o.ov.knobsSet()) {
		report, err := corral.RunOverloadSweep(corral.OverloadParams{
			Size: o.size, Seed: o.seed, Rates: o.rates,
			Budget: o.ov.plannerBudget, Window: o.ov.replanWindow, AdmissionLimit: o.ov.admissionLimit,
		})
		if err != nil {
			fatal(err)
		}
		if o.asJSON {
			emitJSON(map[string]map[string]float64{"overload": report.Values})
			return
		}
		fmt.Println(report)
		return
	}

	if o.list || o.exp == "" {
		fmt.Println("available experiments:")
		for _, e := range corral.Experiments() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Description)
		}
		if o.exp == "" && !o.list {
			fmt.Println("\nrun one with: corralsim -exp <id>")
		}
		return
	}

	ids := []string{o.exp}
	if o.exp == "all" {
		ids = ids[:0]
		for _, e := range corral.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	jsonOut := map[string]map[string]float64{}
	for _, id := range ids {
		report, err := corral.RunExperiment(id, o.size, o.seed)
		if err != nil {
			fatal(err)
		}
		if o.asJSON {
			jsonOut[id] = report.Values
			continue
		}
		fmt.Println(report)
	}
	if o.asJSON {
		emitJSON(jsonOut)
	}
}

func emitJSON(v map[string]map[string]float64) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func parseSize(s string) (corral.ExperimentSize, error) {
	switch s {
	case "s", "small":
		return corral.SizeSmall, nil
	case "m", "medium":
		return corral.SizeMedium, nil
	case "l", "large", "full":
		return corral.SizeLarge, nil
	}
	return 0, fmt.Errorf("unknown size %q (want s, m or l)", s)
}

// options is corralsim's parsed command line, every value checked.
type options struct {
	exp          string
	size         corral.ExperimentSize
	seed         int64
	list, asJSON bool
	intensities  []float64 // -chaos-intensities; nil when unset
	fuzzTraces   int
	rates        []float64 // -arrival-rates; nil when unset
	ov           overloadFlags
	machines     []int // -machines; nil when unset
	workers      int
	tracePath    string
	snapshotAt   string
	target       corral.CheckpointTarget // parsed -snapshot-at
	snapshotOut  string
	resumePath   string
}

// parseFlags defines corralsim's flags on fs, parses args, and rejects
// incoherent combinations and out-of-range values before anything runs.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	var (
		o                      options
		size, chaosI, machines string
	)
	fs.StringVar(&o.exp, "exp", "", "experiment ID (see -list), or \"all\"")
	fs.StringVar(&size, "size", "m", "experiment scale: s, m or l")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.BoolVar(&o.asJSON, "json", false, "emit key outcome values as JSON")
	fs.StringVar(&chaosI, "chaos-intensities", "",
		"comma-separated non-negative fault intensities for the chaos sweep (implies -exp chaos)")
	fs.IntVar(&o.fuzzTraces, "fuzz-traces", 0,
		"trace count for the corralcheck fuzzer (implies -exp fuzz; 0 = bundled default)")
	fs.StringVar(&o.ov.arrivalRates, "arrival-rates", "",
		"comma-separated positive arrival-rate multipliers for the overload sweep (implies -exp overload)")
	fs.Float64Var(&o.ov.plannerBudget, "planner-budget", 0,
		"planner deadline budget in simulated seconds for the overload sweep (0 = bundled default)")
	fs.Float64Var(&o.ov.replanWindow, "replan-window", 0,
		"replan-storm suppression window in simulated seconds for the overload sweep (0 = bundled default)")
	fs.IntVar(&o.ov.admissionLimit, "admission-limit", 0,
		"max concurrently admitted jobs for the overload sweep (0 = bundled default)")
	fs.StringVar(&machines, "machines", "",
		"comma-separated machine counts for the datacenter-scale suite, e.g. 2000,10000 (implies -exp scale; empty = the size's ladder)")
	fs.IntVar(&o.workers, "workers", 0,
		"worker pool bound for parallel experiment sweeps (0 = GOMAXPROCS, 1 = serial; results are identical for any value)")
	fs.StringVar(&o.tracePath, "trace", "",
		"write a deterministic simulation-time event trace to this file (.jsonl = flat JSONL; any other extension = Chrome trace-event JSON, loadable in Perfetto)")
	fs.StringVar(&o.snapshotAt, "snapshot-at", "",
		"capture the crash-resume scenario run at this point (\"ev:N\" = after N events, \"t:SECONDS\" = at simulated time, bare N = ev:N) and write the snapshot to -snapshot-out")
	fs.StringVar(&o.snapshotOut, "snapshot-out", "",
		"snapshot output file for -snapshot-at (default snapshot.json)")
	fs.StringVar(&o.resumePath, "resume", "",
		"resume a snapshot file written by -snapshot-at: restore, audit, run to completion and print the outcome")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := validateFlagCombos(o.exp, o.snapshotAt, o.snapshotOut, o.resumePath, machines, o.ov); err != nil {
		return nil, err
	}
	if o.fuzzTraces < 0 {
		return nil, fmt.Errorf("-fuzz-traces must be non-negative (0 = default)")
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS)")
	}
	var err error
	if o.size, err = parseSize(size); err != nil {
		return nil, err
	}
	if chaosI != "" {
		if o.intensities, err = parseFloats(chaosI, "intensity", false); err != nil {
			return nil, err
		}
	}
	if o.ov.arrivalRates != "" {
		if o.rates, err = parseFloats(o.ov.arrivalRates, "arrival rate", true); err != nil {
			return nil, err
		}
	}
	if machines != "" {
		if o.machines, err = parseInts(machines, "machine count"); err != nil {
			return nil, err
		}
	}
	if o.snapshotAt != "" {
		if o.target, err = parseTarget(o.snapshotAt); err != nil {
			return nil, err
		}
	}
	return &o, nil
}

// overloadFlags bundles the overload-sweep knobs for validation and
// dispatch.
type overloadFlags struct {
	arrivalRates   string
	plannerBudget  float64
	replanWindow   float64
	admissionLimit int
}

// knobsSet reports whether any hardening knob deviates from its default.
func (f overloadFlags) knobsSet() bool {
	return f.plannerBudget > 0 || f.replanWindow > 0 || f.admissionLimit > 0
}

// validateFlagCombos rejects flag combinations with no coherent meaning;
// the caller prints usage and exits non-zero.
func validateFlagCombos(exp, snapshotAt, snapshotOut, resume, machines string, ov overloadFlags) error {
	if machines != "" {
		if exp != "" && exp != "scale" {
			return fmt.Errorf("-machines implies -exp scale and cannot be combined with -exp %s", exp)
		}
		if resume != "" {
			return fmt.Errorf("-resume cannot be combined with -machines")
		}
		if snapshotAt != "" {
			return fmt.Errorf("-snapshot-at cannot be combined with -machines")
		}
		if ov.arrivalRates != "" || ov.knobsSet() {
			return fmt.Errorf("-machines cannot be combined with overload sweep flags")
		}
	}
	if resume != "" && exp != "" {
		return fmt.Errorf("-resume cannot be combined with -exp: a resumed run replays its snapshot's own spec")
	}
	if resume != "" && snapshotAt != "" {
		return fmt.Errorf("-resume and -snapshot-at are mutually exclusive")
	}
	if snapshotAt != "" && exp != "" {
		return fmt.Errorf("-snapshot-at cannot be combined with -exp: it captures the crash-resume scenario run")
	}
	if snapshotOut != "" && snapshotAt == "" {
		return fmt.Errorf("-snapshot-out requires -snapshot-at")
	}
	if !finiteNonNegative(ov.plannerBudget) {
		return fmt.Errorf("-planner-budget must be non-negative and finite (simulated seconds; 0 = default)")
	}
	if !finiteNonNegative(ov.replanWindow) {
		return fmt.Errorf("-replan-window must be non-negative and finite (simulated seconds; 0 = default)")
	}
	if ov.admissionLimit < 0 {
		return fmt.Errorf("-admission-limit must be non-negative (0 = default)")
	}
	if ov.arrivalRates != "" && exp != "" && exp != "overload" {
		return fmt.Errorf("-arrival-rates implies -exp overload and cannot be combined with -exp %s", exp)
	}
	if ov.knobsSet() && ov.arrivalRates == "" && exp != "overload" {
		return fmt.Errorf("-planner-budget, -replan-window and -admission-limit configure the overload sweep: add -exp overload or -arrival-rates")
	}
	if ov.arrivalRates != "" || ov.knobsSet() {
		if resume != "" {
			return fmt.Errorf("-resume cannot be combined with overload sweep flags")
		}
		if snapshotAt != "" {
			return fmt.Errorf("-snapshot-at cannot be combined with overload sweep flags")
		}
	}
	return nil
}

// parseTarget parses a -snapshot-at value: "ev:N" (after N events),
// "t:SECONDS" (first event boundary at or past that simulated time), or a
// bare integer meaning ev:N.
func parseTarget(s string) (corral.CheckpointTarget, error) {
	switch {
	case strings.HasPrefix(s, "ev:"):
		n, err := strconv.ParseUint(s[len("ev:"):], 10, 64)
		if err != nil || n == 0 {
			return corral.CheckpointTarget{}, fmt.Errorf("bad -snapshot-at %q: want a positive event index", s)
		}
		return corral.CheckpointTarget{EventIndex: n}, nil
	case strings.HasPrefix(s, "t:"):
		v, err := strconv.ParseFloat(s[len("t:"):], 64)
		if err != nil || !finiteNonNegative(v) {
			return corral.CheckpointTarget{}, fmt.Errorf("bad -snapshot-at %q: want a finite non-negative time in seconds", s)
		}
		return corral.CheckpointTarget{SimTime: v}, nil
	default:
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil || n == 0 {
			return corral.CheckpointTarget{}, fmt.Errorf("bad -snapshot-at %q: want \"ev:N\", \"t:SECONDS\" or a positive event index", s)
		}
		return corral.CheckpointTarget{EventIndex: n}, nil
	}
}

func parseInts(s, noun string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s %q: want a positive integer", noun, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of finite non-negative
// values, all of them above zero when positive is set.
func parseFloats(s, noun string, positive bool) ([]float64, error) {
	want := "a finite non-negative number"
	if positive {
		want = "a finite positive number"
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !finiteNonNegative(v) || positive && v <= 0 {
			return nil, fmt.Errorf("bad %s %q: want %s", noun, part, want)
		}
		out = append(out, v)
	}
	return out, nil
}

// finiteNonNegative reports whether v is neither NaN, infinite nor negative.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corralsim:", err)
	os.Exit(1)
}
