package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path   string // import path, e.g. "corral/internal/netsim"
	Dir    string
	Module string // module path from go.mod, e.g. "corral"
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// LoadConfig controls package loading.
type LoadConfig struct {
	// Dir is the working directory patterns are resolved against; it must
	// be inside a module. Empty means the process working directory.
	Dir string
	// Tests includes _test.go files, as `go test` builds them: in-package
	// test files are checked together with their package; external
	// (_test-suffixed package) files are checked as their own package
	// against that augmented instance, and against the packages they
	// import that were rebuilt against it.
	Tests bool
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string // "p", or "p [p.test]" for a test variant
	Dir        string
	Export     string // compiled export data
	GoFiles    []string
	ImportMap  map[string]string // source import path → variant ImportPath
	ForTest    string
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves go-style package patterns ("./...", "./internal/netsim")
// to type-checked packages. The go command decides what a package is:
// `go list -export -deps` expands the patterns, picks each package's
// files under the build constraints, maps test variants through their
// ImportMap, and compiles export data for every dependency. Only the
// matched packages are type-checked from source; their imports come
// from that export data, through a fresh importer per package so each
// sees its own build's types. A test variant keeps the path of the
// package it tests ("p" for "p [p.test]", "p_test" for the external
// test package).
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(cfg, patterns)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*listPackage, len(listed))
	tested := map[string]bool{}
	for _, lp := range listed {
		byID[lp.ImportPath] = lp
		if lp.ForTest != "" {
			tested[lp.ForTest] = true
		}
	}
	fset := token.NewFileSet()
	var out []*Package
	for _, lp := range listed {
		switch {
		case lp.DepOnly, len(lp.GoFiles) == 0 && lp.Error == nil:
			continue
		case lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test") && tested[strings.TrimSuffix(lp.ImportPath, ".test")]:
			continue // the generated test main
		case byID[lp.ImportPath+" ["+lp.ImportPath+".test]"] != nil:
			continue // superseded by its test variant
		}
		p, err := check(fset, lp, byID)
		if err == nil && lp.Error != nil {
			err = fmt.Errorf("%s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// goList runs `go list -e -export -deps -json` (plus -test) in cfg.Dir.
func goList(cfg LoadConfig, patterns []string) ([]*listPackage, error) {
	args := []string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,ForTest,DepOnly,Module,Error"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(append(args, "--"), patterns...)...)
	cmd.Dir = cfg.Dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var listed []*listPackage
	for dec := json.NewDecoder(&stdout); ; {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		listed = append(listed, lp)
	}
}

// check parses and type-checks one listed package from source.
func check(fset *token.FileSet, lp *listPackage, byID map[string]*listPackage) (*Package, error) {
	path, _, _ := strings.Cut(lp.ImportPath, " ")
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(imp string) (io.ReadCloser, error) {
		if id, ok := lp.ImportMap[imp]; ok {
			imp = id
		}
		dep := byID[imp]
		switch {
		case dep == nil:
			return nil, fmt.Errorf("%s not listed by go list", imp)
		case dep.Error != nil:
			return nil, errors.New(strings.TrimSpace(dep.Error.Err))
		case dep.Export == "":
			return nil, fmt.Errorf("no export data for %s", imp)
		}
		return os.Open(dep.Export)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: lp.Dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	if lp.Module != nil {
		p.Module = lp.Module.Path
	}
	return p, nil
}
