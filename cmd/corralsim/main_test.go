package main

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"corral"
)

func TestValidateFlagCombos(t *testing.T) {
	cases := []struct {
		name                                           string
		exp, snapshotAt, snapshotOut, resume, machines string
		ov                                             overloadFlags
		wantErr                                        string
	}{
		{name: "plain experiment", exp: "fig6"},
		{name: "snapshot alone", snapshotAt: "ev:100"},
		{name: "snapshot with out", snapshotAt: "t:10", snapshotOut: "s.json"},
		{name: "resume alone", resume: "s.json"},
		{name: "resume with exp", exp: "fig6", resume: "s.json", wantErr: "-resume cannot be combined with -exp"},
		{name: "resume with snapshot", snapshotAt: "ev:5", resume: "s.json", wantErr: "mutually exclusive"},
		{name: "snapshot with exp", exp: "fig6", snapshotAt: "ev:5", wantErr: "-snapshot-at cannot be combined with -exp"},
		{name: "out without at", snapshotOut: "s.json", wantErr: "-snapshot-out requires -snapshot-at"},

		// Overload sweep flags.
		{name: "overload alone", exp: "overload"},
		{name: "overload with knobs", exp: "overload",
			ov: overloadFlags{plannerBudget: 0.5, replanWindow: 10, admissionLimit: 4}},
		{name: "rates imply overload", ov: overloadFlags{arrivalRates: "1,4"}},
		{name: "rates with explicit overload", exp: "overload", ov: overloadFlags{arrivalRates: "1,2,4"}},
		{name: "rates with knobs only", ov: overloadFlags{arrivalRates: "4", admissionLimit: 2}},
		{name: "negative budget", exp: "overload", ov: overloadFlags{plannerBudget: -1},
			wantErr: "-planner-budget must be non-negative"},
		{name: "negative window", exp: "overload", ov: overloadFlags{replanWindow: -0.1},
			wantErr: "-replan-window must be non-negative"},
		{name: "NaN budget", exp: "overload", ov: overloadFlags{plannerBudget: math.NaN()},
			wantErr: "-planner-budget must be non-negative and finite"},
		{name: "infinite budget", exp: "overload", ov: overloadFlags{plannerBudget: math.Inf(1)},
			wantErr: "-planner-budget must be non-negative and finite"},
		{name: "NaN window", exp: "overload", ov: overloadFlags{replanWindow: math.NaN()},
			wantErr: "-replan-window must be non-negative and finite"},
		{name: "infinite window", exp: "overload", ov: overloadFlags{replanWindow: math.Inf(1)},
			wantErr: "-replan-window must be non-negative and finite"},
		{name: "negative limit", exp: "overload", ov: overloadFlags{admissionLimit: -2},
			wantErr: "-admission-limit must be non-negative"},
		{name: "rates with other exp", exp: "fig6", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-arrival-rates implies -exp overload"},
		{name: "knobs without overload", exp: "fig6", ov: overloadFlags{plannerBudget: 0.5},
			wantErr: "configure the overload sweep"},
		{name: "knobs with nothing else", ov: overloadFlags{admissionLimit: 3},
			wantErr: "configure the overload sweep"},
		{name: "rates with resume", resume: "s.json", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-resume cannot be combined with overload sweep flags"},
		{name: "rates with snapshot", snapshotAt: "ev:5", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-snapshot-at cannot be combined with overload sweep flags"},

		// Scale suite flags.
		{name: "scale alone", exp: "scale"},
		{name: "machines implies scale", machines: "2000"},
		{name: "machines with explicit scale", exp: "scale", machines: "2000,10000"},
		{name: "machines with other exp", exp: "fig6", machines: "2000",
			wantErr: "-machines implies -exp scale"},
		{name: "machines with resume", resume: "s.json", machines: "2000",
			wantErr: "-resume cannot be combined with -machines"},
		{name: "machines with snapshot", snapshotAt: "ev:5", machines: "2000",
			wantErr: "-snapshot-at cannot be combined with -machines"},
		{name: "machines with rates", machines: "2000", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-machines cannot be combined with overload sweep flags"},
	}
	for _, c := range cases {
		err := validateFlagCombos(c.exp, c.snapshotAt, c.snapshotOut, c.resume, c.machines, c.ov)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want corral.ExperimentSize
		ok   bool
	}{
		{"s", corral.SizeSmall, true}, {"small", corral.SizeSmall, true},
		{"m", corral.SizeMedium, true}, {"medium", corral.SizeMedium, true},
		{"l", corral.SizeLarge, true}, {"large", corral.SizeLarge, true},
		{"full", corral.SizeLarge, true},
		{"", 0, false}, {"xl", 0, false},
	} {
		got, err := parseSize(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseSize(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseSize(%q) did not error", tc.in)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("2000, 5000,10000", "machine count")
	if err != nil || len(got) != 3 || got[0] != 2000 || got[1] != 5000 || got[2] != 10000 {
		t.Errorf("parseInts = %v, %v; want [2000 5000 10000]", got, err)
	}
	for _, bad := range []string{"", "abc", "2000,-5", "0", "1.5"} {
		if _, err := parseInts(bad, "machine count"); err == nil {
			t.Errorf("parseInts(%q): no error", bad)
		}
	}
}

// TestParseFlags covers the values parseFlags rejects before a run starts:
// a negative arrival rate used to reach the simulator as arrivals before
// time zero and panic, +Inf ran a sweep row labelled +Inf, and a NaN
// intensity degraded every uplink while failing no machine.
func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args    string
		wantErr string // "" = accepted
	}{
		{args: "-exp fig6 -size s"},
		{args: "-size s -arrival-rates 0.5,1,4"},
		{args: "-size s -chaos-intensities 0,0.5,1"},
		{args: "-machines 2000,10000"},
		{args: "-snapshot-at t:12.5 -snapshot-out s.json"},
		{args: "-size s -arrival-rates -1", wantErr: "bad arrival rate"},
		{args: "-arrival-rates 0", wantErr: "bad arrival rate"},
		{args: "-arrival-rates 1,+Inf", wantErr: "bad arrival rate"},
		{args: "-arrival-rates NaN", wantErr: "bad arrival rate"},
		{args: "-arrival-rates 1,,2", wantErr: "bad arrival rate"},
		{args: "-chaos-intensities NaN", wantErr: "bad intensity"},
		{args: "-chaos-intensities -0.5", wantErr: "bad intensity"},
		{args: "-chaos-intensities Inf", wantErr: "bad intensity"},
		{args: "-machines 0", wantErr: "bad machine count"},
		{args: "-snapshot-at t:NaN", wantErr: "bad -snapshot-at"},
		{args: "-fuzz-traces -1", wantErr: "-fuzz-traces must be non-negative"},
		{args: "-workers -2", wantErr: "-workers must be non-negative"},
		{args: "-size xl -exp fig6", wantErr: "unknown size"},
		{args: "-exp fig6 -arrival-rates 1", wantErr: "-arrival-rates implies -exp overload"},
		{args: "-no-such-flag", wantErr: "flag provided but not defined"},
	} {
		fs := flag.NewFlagSet("corralsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, strings.Fields(c.args))
		if c.wantErr == "" {
			if err != nil || o == nil {
				t.Errorf("%q: unexpected error %v", c.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: err = %v, want %q", c.args, err, c.wantErr)
		}
	}
}

// FuzzParseFlags: for any command line, flag parsing plus validation
// never panics, and every value it accepts is in its documented range.
// The range checks here are written out independently of the parser.
func FuzzParseFlags(f *testing.F) {
	for _, seed := range []string{
		"-exp fig6 -size s",
		"-size s -arrival-rates -1",
		"-arrival-rates +Inf",
		"-arrival-rates 0.5,1,4 -planner-budget 0.5 -replan-window 10 -admission-limit 4",
		"-exp overload -planner-budget NaN",
		"-chaos-intensities NaN",
		"-chaos-intensities 0,0.5,1 -size s",
		"-machines 2000,10000 -workers 2",
		"-snapshot-at t:12.5 -snapshot-out s.json",
		"-snapshot-at ev:100",
		"-resume s.json",
		"-fuzz-traces 3 -size s -seed 7",
		"-list -json",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, args string) {
		fs := flag.NewFlagSet("corralsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, strings.Fields(args))
		if err != nil {
			if o != nil {
				t.Fatalf("%q: options returned with error %v", args, err)
			}
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for _, v := range o.rates {
			if !finite(v) || v <= 0 {
				t.Fatalf("%q: accepted arrival rate %g", args, v)
			}
		}
		for _, v := range o.intensities {
			if !finite(v) || v < 0 {
				t.Fatalf("%q: accepted intensity %g", args, v)
			}
		}
		for _, v := range o.machines {
			if v <= 0 {
				t.Fatalf("%q: accepted machine count %d", args, v)
			}
		}
		if b, w := o.ov.plannerBudget, o.ov.replanWindow; !finite(b) || b < 0 || !finite(w) || w < 0 {
			t.Fatalf("%q: accepted budget %g, window %g", args, b, w)
		}
		if o.ov.admissionLimit < 0 || o.fuzzTraces < 0 || o.workers < 0 {
			t.Fatalf("%q: accepted a negative count: %+v", args, o)
		}
		if o.snapshotAt != "" && o.target.EventIndex == 0 && (!finite(o.target.SimTime) || o.target.SimTime < 0) {
			t.Fatalf("%q: accepted snapshot target %+v", args, o.target)
		}
		if o.resumePath != "" && (o.exp != "" || o.snapshotAt != "" || o.machines != nil || o.rates != nil) {
			t.Fatalf("%q: accepted -resume with a conflicting flag", args)
		}
	})
}

func TestParseTarget(t *testing.T) {
	for _, c := range []struct {
		in      string
		wantEv  uint64
		wantT   float64
		wantErr bool
	}{
		{in: "ev:123", wantEv: 123},
		{in: "456", wantEv: 456},
		{in: "t:12.5", wantT: 12.5},
		{in: "t:0", wantT: 0},
		{in: "ev:0", wantErr: true},
		{in: "0", wantErr: true},
		{in: "t:-1", wantErr: true},
		{in: "t:NaN", wantErr: true},
		{in: "t:+Inf", wantErr: true},
		{in: "ev:abc", wantErr: true},
		{in: "whenever", wantErr: true},
		{in: "", wantErr: true},
	} {
		got, err := parseTarget(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseTarget(%q): no error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseTarget(%q): %v", c.in, err)
			continue
		}
		//corralvet:ok floateq exact identity intended: parsed -snapshot-at times must equal the literal they were parsed from
		if got.EventIndex != c.wantEv || got.SimTime != c.wantT {
			t.Errorf("parseTarget(%q) = %+v, want ev=%d t=%g", c.in, got, c.wantEv, c.wantT)
		}
	}
}
