package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so spreads printed here match that function on the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Metric is one reported figure.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // how it was obtained, for the human-readable lines
}

// report is the benchmark's output: readable lines, then as the last line
// the JSON object with exactly the keys correct, attempted, failed and
// metrics.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	Problems  []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, Note: note})
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) write(w io.Writer) error {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-26s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
