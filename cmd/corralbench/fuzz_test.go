package main

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to parse, seeded with the parse and
// compare tests' inputs. parse must never panic and must return a nil
// Baseline with every error. An accepted run is compared against itself,
// which must report no drift at all, and in both directions against a
// fixed baseline, which must not panic. Run it with
//
//	go test ./cmd/corralbench -run '^$' -fuzz '^FuzzParse$' -fuzztime 20s
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		sample,
		multiPkgSample,
		"PASS\n",
		"BenchmarkX-8 notanumber 5 ns/op",
		"BenchmarkX-8 1 5 ns/op 7",
		"BenchmarkX-8 1 bogus ns/op",
	} {
		f.Add([]byte(s))
	}
	fixed, err := parse(bufio.NewScanner(bytes.NewReader([]byte(multiPkgSample))))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := parse(bufio.NewScanner(bytes.NewReader(data)))
		if err != nil {
			if b != nil {
				t.Fatalf("parse returned a Baseline with error %v", err)
			}
			return
		}
		if rep := compareBaselines(b, b, 0, false); len(rep.Failures)+len(rep.Warnings) > 0 {
			t.Fatalf("run compared with itself drifts: %v %v", rep.Failures, rep.Warnings)
		}
		compareBaselines(fixed, b, 10, false)
		compareBaselines(b, fixed, 10, true)
	})
}
