// Package analysis is lsvd-vet's stdlib-only analyzer framework: a
// package loader built on `go list -export` + go/importer (no
// golang.org/x/tools), annotation parsing for the lsvd directive
// grammar (//lsvd:lock, //lsvd:requires, //lsvd:classifies-errors,
// //lsvd:ignore), a lock-flow walker and interprocedural effect
// summaries shared by the concurrency analyzers, and the ten analyzers
// themselves (annform, chanleak, ctxflow, deferorder, errclass,
// goroguard, lockheld, lockorder, sectmath, spinwait). See DESIGN.md
// §15.
package analysis

import (
	"bytes"
	"encoding/json"
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

// Package is one type-checked target package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader type-checks packages from syntax, resolving every import —
// stdlib and module alike — through compiler export data discovered
// with one `go list -export -deps -json` run. Only target packages pay
// for parsing; dependencies come from their .a files, which is what
// keeps the driver stdlib-only: go/importer's default lookup cannot
// find stdlib export data on modern toolchains, so we hand it the
// paths the go command reports.
type Loader struct {
	Fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// NewLoader lists patterns (with dependencies and export data) in dir
// and returns a loader plus the type-checked target packages, sorted
// by import path.
func NewLoader(dir string, patterns ...string) (*Loader, []*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Name,Export,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}

	l := &Loader{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := l.check(t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return l, pkgs, nil
}

// LoadDir parses and type-checks every .go file in dir as one package
// under the given import path. It serves the self-test harness, whose
// seeded-violation packages live in testdata/ (invisible to the go
// tool); their imports must be dependencies of the module proper so
// export data is available.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		// Self-test packages are analyzed, not tested; a stray _test.go
		// would be a separate test package and break type-checking.
		if strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, e.Name()))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(importPath, dir, files)
}

func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}
