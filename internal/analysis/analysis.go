// Package analysis implements corralvet, a vet-style static-analysis
// suite enforcing the simulator's determinism contract (see DESIGN.md,
// "Determinism contract"). Every experiment result in EXPERIMENTS.md
// depends on a run being a pure function of (inputs, seed); the analyzers
// here turn the hand-maintained conventions that guarantee that — sorted
// map iteration, virtual time only, injected seeded randomness, no exact
// float equality, no second-scale/nanosecond-scale mixing — into
// build-time diagnostics.
//
// The package is stdlib-only, so go.mod stays dependency-free: the go
// command says what a package is (`go list -export -deps`, see Load),
// and the matched packages are parsed with go/parser and type-checked
// with go/types against the export data it compiled. Only packages of
// the module the patterns resolve in are loaded, so the nested
// perfbench/ module is not analyzed here; `make perfbench-check` vets
// and tests it.
//
// A finding that is intentional is suppressed with a comment on the same
// line or the line directly above:
//
//	//corralvet:ok <check> <reason>
//
// The reason is mandatory; an annotation without one is itself reported.
//
// Determinism obligations of this package: corralvet only reads source
// trees; its diagnostics are emitted in (file, line, column) order so its
// own output is stable across runs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // short lower-case identifier, used in diagnostics and suppressions
	Doc  string // one-line description for -list
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Module is the module path ("corral"); analyzers that apply only to
	// simulation packages test Pkg.Path() against Module + "/internal/".
	Module string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Finding{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a diagnostic under construction: analyzers hand token.Pos
// values and Report resolves them against the pass's FileSet, so checks
// never deal in token.Position directly.
type Finding struct {
	Pos     token.Pos
	Message string
	Related []RelatedPos // optional secondary positions (e.g. the parallelFor call a closure was passed to)
	Fix     string       // optional suggested-fix text, shown by -json consumers and CI annotations
}

// RelatedPos is one secondary position of a Finding.
type RelatedPos struct {
	Pos     token.Pos
	Message string
}

// Report records a structured diagnostic.
func (p *Pass) Report(f Finding) {
	d := Diagnostic{
		Pos:     p.Fset.Position(f.Pos),
		Check:   p.Analyzer.Name,
		Message: f.Message,
		Fix:     f.Fix,
	}
	for _, r := range f.Related {
		d.Related = append(d.Related, Related{Pos: p.Fset.Position(r.Pos), Message: r.Message})
	}
	*p.diags = append(*p.diags, d)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	Related []Related // secondary positions, in analyzer-chosen order
	Fix     string    // suggested fix, empty when the analyzer has none
}

// Related is a resolved secondary position attached to a Diagnostic.
type Related struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	for _, r := range d.Related {
		s += fmt.Sprintf("\n\t%s:%d:%d: %s", r.Pos.Filename, r.Pos.Line, r.Pos.Column, r.Message)
	}
	if d.Fix != "" {
		s += fmt.Sprintf("\n\tfix: %s", d.Fix)
	}
	return s
}

// Analyzers returns the full corralvet suite in stable order: the five
// determinism checks from v1, then the v2 concurrency/allocation contract
// checks, then the suppression-inventory audit.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		WallClock,
		SeedRand,
		FloatEq,
		CtxTime,
		SweepSafe,
		HotAlloc,
		TraceArg,
		SuppressStale,
	}
}

// ByName resolves a comma-separated check list ("maporder,floateq").
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown check %q", n)
		}
	}
	return out, nil
}

// Select resolves the -checks / -skip pair: checks names the subset to
// run (empty means all), skip removes checks from that subset. Both
// validate their names so a typo cannot silently run the wrong gate.
func Select(checks, skip string) ([]*Analyzer, error) {
	selected, err := ByName(checks)
	if err != nil {
		return nil, err
	}
	if skip == "" {
		return selected, nil
	}
	drop, err := ByName(skip)
	if err != nil {
		return nil, err
	}
	dropSet := map[string]bool{}
	for _, a := range drop {
		dropSet[a.Name] = true
	}
	var out []*Analyzer
	for _, a := range selected {
		if !dropSet[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("check selection %q minus %q leaves nothing to run", checks, skip)
	}
	return out, nil
}

// suppressionDirective is the comment prefix recognized on the flagged
// line or the line directly above it.
const suppressionDirective = "corralvet:ok"

// suppressionKey identifies one (file, line) slot.
type suppressionKey struct {
	file string
	line int
}

// suppression is one well-formed //corralvet:ok directive. used flips
// when the directive absorbs at least one raw diagnostic, which is what
// the suppressstale audit cross-references.
type suppression struct {
	pos  token.Position // the directive comment itself
	used bool
}

// suppressions maps (file, line) -> suppressed check name -> directive.
type suppressions map[suppressionKey]map[string]*suppression

// collectSuppressions scans the comments of files for corralvet:ok
// directives. Malformed directives (no check name, or no reason) are
// returned as diagnostics so they cannot silently suppress nothing.
func collectSuppressions(fset *token.FileSet, files []*ast.File, knownChecks map[string]bool) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, suppressionDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, suppressionDirective))
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				switch {
				case len(fields) == 0:
					bad = append(bad, Diagnostic{Pos: pos, Check: "corralvet",
						Message: "malformed suppression: want //corralvet:ok <check> <reason>"})
					continue
				case len(fields) < 2:
					bad = append(bad, Diagnostic{Pos: pos, Check: "corralvet",
						Message: fmt.Sprintf("suppression of %q needs a reason: //corralvet:ok %s <reason>", fields[0], fields[0])})
					continue
				case knownChecks != nil && !knownChecks[fields[0]]:
					bad = append(bad, Diagnostic{Pos: pos, Check: "corralvet",
						Message: fmt.Sprintf("suppression names unknown check %q", fields[0])})
					continue
				}
				k := suppressionKey{file: pos.Filename, line: pos.Line}
				if sup[k] == nil {
					sup[k] = map[string]*suppression{}
				}
				sup[k][fields[0]] = &suppression{pos: pos}
			}
		}
	}
	return sup, bad
}

// suppressed reports whether d is covered by a directive on its line or
// the line directly above, marking every covering directive as used (a
// diagnostic reachable from two directives keeps both alive).
func (s suppressions) suppressed(d Diagnostic) bool {
	hit := false
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if sup := s[suppressionKey{file: d.Pos.Filename, line: line}][d.Check]; sup != nil {
			sup.used = true
			hit = true
		}
	}
	return hit
}

// Timings is per-analyzer elapsed time summed over all packages.
type Timings map[string]time.Duration

// RunAnalyzers applies the given analyzers to every package and returns
// the surviving (non-suppressed) diagnostics in (file, line, col, check)
// order, plus diagnostics for malformed suppression comments and (when
// the suppressstale audit is selected) for directives that no longer
// suppress anything.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersTimed(pkgs, analyzers, nil)
	return diags
}

// RunAnalyzersTimed is RunAnalyzers with per-check wall-clock attribution
// for `corralvet -v`. The clock is injected (pass time.Now) so this
// package itself never reads the host clock; a nil clock skips timing.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer, clock func() time.Time) ([]Diagnostic, Timings) {
	known := map[string]bool{}
	auditStale := false
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		if a == SuppressStale {
			auditStale = true
		}
	}
	var timings Timings
	if clock != nil {
		timings = Timings{}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   pkg.Module,
				diags:    &raw,
			}
			if clock == nil {
				a.Run(pass)
				continue
			}
			start := clock()
			a.Run(pass)
			timings[a.Name] += clock().Sub(start)
		}
		sup, bad := collectSuppressions(pkg.Fset, pkg.Files, known)
		for _, d := range raw {
			if !sup.suppressed(d) {
				out = append(out, d)
			}
		}
		out = append(out, bad...)
		if auditStale {
			out = append(out, auditSuppressions(sup, ran)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out, timings
}

// exprString renders an expression compactly for diagnostics and for the
// collected-and-sorted idiom match in maporder (textual identity is
// sufficient there: the idiom appends to and sorts the same local).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.BasicLit:
		return e.Value
	}
	return "<expr>"
}
