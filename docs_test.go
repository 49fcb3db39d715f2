package lsvd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designHeading matches a numbered DESIGN.md heading: "## 8. core" or
// "### 11.2 Checkpoints".
var designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+[a-z]?(?:\.\d+)?)\.? `)

// designRef matches a section reference to DESIGN.md, possibly broken
// across a line (and a Go comment marker) between the name and the "§".
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)+§\s*(\d+[a-z]?(?:\.\d+)?)`)

// bareLetterRef matches a bare section sign before a number with a
// letter suffix. The paper's sections are numbers only, so such a
// reference can only mean a DESIGN.md section.
var bareLetterRef = regexp.MustCompile(`§\s*(\d+[a-z])\b`)

// roadmapRef matches a citation of a ROADMAP.md item by its number,
// with or without the word "item", possibly broken across a comment
// line.
var roadmapRef = regexp.MustCompile(`ROADMAP(?:\.md)?(?:\s|//)+(?:items?\s+)?\d`)

// ownSectionRef matches a section number of 8 or above. DESIGN.md cites
// the paper's sections 2 to 6, so such a number is one of its own.
var ownSectionRef = regexp.MustCompile(`§((?:[89]|[1-9]\d)(?:\.\d+)?)`)

// TestDesignReferencesResolve: every "DESIGN.md §N" in the docs, the
// Makefile and the Go sources names a heading DESIGN.md has, and so do
// every bare letter-suffixed section in a Go comment and every section
// of 8 or above that DESIGN.md cites itself. No Go source cites a
// ROADMAP.md item: items are renumbered and struck, so a source points
// at a DESIGN.md section or a test instead. The changelog and results/
// quote the document as it was, so they are not checked; benchmark/ is
// its own module.
func TestDesignReferencesResolve(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	headings := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}
	if len(headings) < 10 {
		t.Fatalf("found only %d numbered headings in DESIGN.md", len(headings))
	}

	files := []string{"README.md", "ROADMAP.md", "EXPERIMENTS.md", "Makefile"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "benchmark" || d.Name() == "results") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	refs := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		for _, m := range designRef.FindAllStringSubmatchIndex(src, -1) {
			refs++
			if sec := src[m[2]:m[3]]; !headings[sec] {
				t.Errorf("%s:%d: DESIGN.md has no section §%s", f, lineOf(src, m[0]), sec)
			}
		}
		if strings.HasSuffix(f, ".go") {
			for _, m := range bareLetterRef.FindAllStringSubmatchIndex(src, -1) {
				if sec := src[m[2]:m[3]]; !headings[sec] {
					t.Errorf("%s:%d: §%s names no DESIGN.md section", f, lineOf(src, m[0]), sec)
				}
			}
			for _, m := range roadmapRef.FindAllStringIndex(src, -1) {
				t.Errorf("%s:%d: cites a ROADMAP.md item; cite a DESIGN.md section or a test", f, lineOf(src, m[0]))
			}
		}
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md references at all; the pattern is broken")
	}
	for _, m := range ownSectionRef.FindAllStringSubmatchIndex(design, -1) {
		if sec := design[m[2]:m[3]]; !headings[sec] {
			t.Errorf("DESIGN.md:%d: §%s names no section", lineOf(design, m[0]), sec)
		}
	}
}

// goName matches a backticked token that reads as a Go identifier or
// selector: `checkDestageOrder`, `core.CacheLayout`.
var goName = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)*)`")

// TestDesignChecksExist: every sentence of an **Invariants** or **Crash
// contract** paragraph of §6–§15 cites a check — the test, fuzz target
// or assert that holds its claim — and every Go name such a paragraph
// cites is declared in a Go source outside testdata/, each part of a
// selector on its own: a package, or a func, method, type, field,
// parameter, var or const.
func TestDesignChecksExist(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	from, to := strings.Index(design, "\n## 6. "), strings.Index(design, "\n## 16. ")
	if from < 0 || to < from {
		t.Fatal("DESIGN.md has no §6 to §15")
	}
	declared := goDeclarations(t)
	cited := 0
	for off, para := from, ""; off < to; off += len(para) + 2 {
		para, _, _ = strings.Cut(design[off:to], "\n\n")
		if !strings.Contains(para, "**Invariants") && !strings.Contains(para, "**Crash contract") {
			continue
		}
		for _, sentence := range sentences(para) {
			if !goName.MatchString(sentence) {
				t.Errorf("DESIGN.md:%d: a sentence names no check: %q", lineOf(design, off), sentence)
			}
		}
		for _, m := range goName.FindAllStringSubmatchIndex(para, -1) {
			cited++
			for _, part := range strings.Split(para[m[2]:m[3]], ".") {
				if !declared[part] {
					t.Errorf("DESIGN.md:%d: %s names %q, which no Go source declares",
						lineOf(design, off+m[0]), para[m[0]:m[1]], part)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no cited checks at all; the pattern is broken")
	}
}

// timerFuncs are the time package's functions that start a timer or
// wait on one.
var timerFuncs = map[string]bool{"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}

// clockFree are where a timer may bypass objstore.Clock: test helpers
// (testrec, testleak), the experiments, which pace simulated clients in
// real time, and the clock of real time itself.
var clockFree = []string{"internal/testrec/", "internal/testleak/", "internal/experiments/", "internal/objstore/clock.go"}

// TestTimersUseTheClock: no non-test Go source outside clockFree starts
// a timer or sleeps on its own. The product's timers go through
// objstore.Clock (DESIGN.md §11.4), so a test can hold and fire each
// one as an event.
func TestTimersUseTheClock(t *testing.T) {
	fset := token.NewFileSet()
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "benchmark") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				pkg = "time"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		exempt := slices.ContainsFunc(clockFree, func(p string) bool { return strings.HasPrefix(filepath.ToSlash(path), p) })
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && timerFuncs[sel.Sel.Name] {
				found++
				if !exempt {
					t.Errorf("%s: time.%s bypasses objstore.Clock", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no timer at all, not even the clock's own; the walk is broken")
	}
}

// sentences splits a paragraph after each '.', '!' or '?' outside
// backticks that ends it or is followed by white space.
func sentences(para string) []string {
	var out []string
	code, start := false, 0
	for i, r := range para {
		switch {
		case r == '`':
			code = !code
		case !code && strings.ContainsRune(".!?", r) && (i+1 == len(para) || strings.ContainsRune(" \n", rune(para[i+1]))):
			out = append(out, strings.TrimSpace(para[start:i+1]))
			start = i + 1
		}
	}
	if rest := strings.TrimSpace(para[start:]); rest != "" {
		out = append(out, rest)
	}
	return out
}

// goDeclarations returns every name the module's Go sources outside
// testdata/ declare: packages, funcs, methods, types, fields, parameters,
// vars and consts.
func goDeclarations(t *testing.T) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "benchmark") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared[f.Name.Name] = true
		ast.Inspect(f, func(n ast.Node) bool {
			var names []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				names = []*ast.Ident{n.Name}
			case *ast.TypeSpec:
				names = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				names = n.Names
			case *ast.Field:
				names = n.Names
			}
			for _, id := range names {
				declared[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

func lineOf(s string, off int) int { return strings.Count(s[:off], "\n") + 1 }
