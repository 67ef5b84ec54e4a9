package analysis

import "testing"

// BenchmarkCorralvetSelfRun times the full nine-analyzer suite over the
// whole module. Loading is excluded from the timed region: it runs
// `go list` and type-checks the module, which measures the go command's
// build cache, not the analyzers. The findings metric is semantic — the tree must be
// corralvet-clean, so the bench-regression gate pins it at zero; the
// packages metric tracks suite coverage and moves only when packages are
// added or removed (refresh the baseline with `make bench`).
func BenchmarkCorralvetSelfRun(b *testing.B) {
	pkgs, err := Load(LoadConfig{Dir: "../.."}, "./...")
	if err != nil {
		b.Fatal(err)
	}
	suite := Analyzers()
	var findings int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings = len(RunAnalyzers(pkgs, suite))
	}
	b.ReportMetric(float64(findings), "findings")
	b.ReportMetric(float64(len(pkgs)), "packages")
}
