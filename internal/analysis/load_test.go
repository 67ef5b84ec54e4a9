package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a miniature module on disk for loader tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadResolvesPatternsAndModulePaths(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":           "module example/mini\n\ngo 1.22\n",
		"root.go":          "package mini\n\nconst Root = 1\n",
		"internal/a/a.go":  "package a\n\nfunc A() int { return 1 }\n",
		"internal/b/b.go":  "package b\n\nimport \"example/mini/internal/a\"\n\nfunc B() int { return a.A() }\n",
		"testdata/skip.go": "package broken !!!\n",
		// Excluded by its build constraint: checking it would redeclare A.
		"internal/a/gen.go": "//go:build ignore\n\npackage a\n\nfunc A() int { return 2 }\n",
		// A nested module is not part of this one.
		"nested/go.mod": "module example/nested\n\ngo 1.22\n",
		"nested/n/n.go": "package n\n\nconst N = 1\n",
	})
	pkgs, err := Load(LoadConfig{Dir: dir}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if p.Module != "example/mini" {
			t.Errorf("%s: Module = %q, want example/mini", p.Path, p.Module)
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: incomplete package", p.Path)
		}
	}
	want := []string{"example/mini", "example/mini/internal/a", "example/mini/internal/b"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths = %v, want %v", paths, want)
		}
	}
}

// TestLoadTypeErrorNamesFileAndLine: a package that does not type-check
// fails the whole load with the offending position, which corralvet
// reports with exit status 2.
func TestLoadTypeErrorNamesFileAndLine(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":          "module example/mini\n\ngo 1.22\n",
		"internal/a/a.go": "package a\n\nvar X int = \"one\"\n",
	})
	_, err := Load(LoadConfig{Dir: dir}, "./...")
	if err == nil || !strings.Contains(err.Error(), filepath.Join("internal", "a", "a.go")+":3:") {
		t.Fatalf("Load error = %v, want one naming internal/a/a.go:3", err)
	}
}

// TestLoadTypeIdentity guards the canonical-instance invariant: a package
// imported by two others must be the same *types.Package, or cross-package
// assignments fail to type-check.
func TestLoadTypeIdentity(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":          "module example/mini\n\ngo 1.22\n",
		"internal/j/j.go": "package j\n\ntype Job struct{ ID int }\n",
		"internal/m/m.go": "package m\n\nimport \"example/mini/internal/j\"\n\nfunc Wrap(x *j.Job) *j.Job { return x }\n",
		"internal/u/u.go": "package u\n\nimport (\n\t\"example/mini/internal/j\"\n\t\"example/mini/internal/m\"\n)\n\nfunc Use() *j.Job { return m.Wrap(&j.Job{ID: 1}) }\n",
	})
	if _, err := Load(LoadConfig{Dir: dir}, "./..."); err != nil {
		t.Fatalf("Load: %v", err)
	}
}

func TestLoadWithTests(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                  "module example/mini\n\ngo 1.22\n",
		"internal/a/a.go":         "package a\n\nfunc A() int { return 1 }\n",
		"internal/a/help_test.go": "package a\n\nfunc helper() int { return A() }\n",
		"internal/a/ext_test.go":  "package a_test\n\nimport \"example/mini/internal/a\"\n\nvar _ = a.A\n",
	})
	pkgs, err := Load(LoadConfig{Dir: dir, Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := map[string]bool{"example/mini/internal/a": true, "example/mini/internal/a_test": true}
	if len(paths) != 2 || !want[paths[0]] || !want[paths[1]] {
		t.Fatalf("paths = %v, want the package and its external test package", paths)
	}
}

// TestLoadExternalTestSharesImporters: an external test importing both
// the package under test and a package that imports it must see one
// instance of each type, as go test compiles the importer against the
// test-augmented package. Package a makes the loader check r before s.
func TestLoadExternalTestSharesImporters(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                  "module example/mini\n\ngo 1.22\n",
		"internal/a/a.go":         "package a\n\nimport \"example/mini/internal/r\"\n\nvar A = r.Capture\n",
		"internal/j/j.go":         "package j\n\ntype Job struct{ ID int }\n",
		"internal/s/s.go":         "package s\n\nimport \"example/mini/internal/j\"\n\ntype Snap struct{ Job *j.Job }\n",
		"internal/s/help_test.go": "package s\n\nfunc helper() *Snap { return &Snap{} }\n",
		"internal/r/r.go":         "package r\n\nimport (\n\t\"example/mini/internal/j\"\n\t\"example/mini/internal/s\"\n)\n\nfunc Capture() *s.Snap { return &s.Snap{Job: &j.Job{}} }\n\nfunc Job(x *s.Snap) *j.Job { return x.Job }\n",
		"internal/s/ext_test.go": "package s_test\n\nimport (\n\t\"example/mini/internal/j\"\n\t\"example/mini/internal/r\"\n\t\"example/mini/internal/s\"\n)\n\n" +
			"var snap *s.Snap = r.Capture()\n\nvar job *j.Job = r.Job(snap)\n",
	})
	pkgs, err := Load(LoadConfig{Dir: dir, Tests: true}, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	found := false
	for _, p := range pkgs {
		found = found || p.Path == "example/mini/internal/s_test"
	}
	if !found {
		t.Fatal("external test package not loaded")
	}
}

func TestLoadOnRealRepoFindsAnnotatedSites(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	// The repo itself must stay corralvet-clean; this is the same
	// invariant CI enforces via `go run ./cmd/corralvet ./...`.
	pkgs, err := Load(LoadConfig{Dir: "../.."}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the full module, got %d packages", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
