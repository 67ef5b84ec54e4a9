package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSummarize feeds arbitrary bytes to summarize, seeded with the
// committed overload trace, each of its two runs alone, and short
// prefixes. summarize must never panic, must write nothing when it
// returns an error, and must render accepted input the same way twice.
// Run it with
//
//	go test ./cmd/corraltrace -run '^$' -fuzz '^FuzzSummarize$' -fuzztime 20s
func FuzzSummarize(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "overload.trace.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint8(3))
	lines := bytes.SplitAfter(raw, []byte("\n"))
	for i, line := range lines {
		if i > 0 && bytes.Contains(line, []byte(`"run":`)) {
			f.Add(bytes.Join(lines[:i], nil), uint8(2)) // first run
			f.Add(bytes.Join(lines[i:], nil), uint8(5)) // second run
		}
	}
	for _, n := range []int{1, 2, 12, 60} {
		f.Add(bytes.Join(lines[:n], nil), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, top uint8) {
		var out bytes.Buffer
		if err := summarize(&out, bytes.NewReader(data), int(top)); err != nil {
			if out.Len() > 0 {
				t.Fatalf("summarize wrote %d bytes before failing with %v", out.Len(), err)
			}
			return
		}
		var again bytes.Buffer
		if err := summarize(&again, bytes.NewReader(data), int(top)); err != nil {
			t.Fatalf("second summarize of accepted input failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("summarize rendered the same input differently twice")
		}
	})
}

// TestSummarizeRejectsWithoutOutput pins the error contract on inputs
// with a valid run before the fault: a malformed line, an overlong line
// and a negative -top all fail with nothing written.
func TestSummarizeRejectsWithoutOutput(t *testing.T) {
	run := `{"run":0,"label":"ok","events":1}` + "\n" + `{"t":1,"ev":"job_done","job":1}` + "\n"
	for _, in := range []struct {
		name string
		data string
		top  int
	}{
		{"malformed line", run + `{"run":1,"label":"bad"}` + "\n{not json\n", 3},
		{"overlong line", run + `{"t":2,"detail":"` + string(bytes.Repeat([]byte("x"), 1<<24)) + `"}` + "\n", 3},
		{"negative top", run, -1},
		{"empty", "\n\n", 3},
	} {
		var out bytes.Buffer
		if err := summarize(&out, bytes.NewReader([]byte(in.data)), in.top); err == nil {
			t.Errorf("%s: accepted", in.name)
		} else if out.Len() > 0 {
			t.Errorf("%s: wrote %d bytes before failing with %v", in.name, out.Len(), err)
		}
	}
}
