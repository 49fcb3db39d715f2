package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The loader's file selection is load-bearing for every analyzer
// downstream: a _test.go or a build-tagged file slipping in would
// change what the suite sees (and a testdata or reference-repo file
// would drown it in noise). These tests pin the selection rules.

func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, pkgs, err := NewLoader(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	return loader, pkgs
}

// TestLoaderExcludesTestFiles: `go list`'s GoFiles never contains
// _test.go files, so the analyzers see only shipping code.
func TestLoaderExcludesTestFiles(t *testing.T) {
	loader, pkgs := loadModule(t)
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := loader.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: test file loaded into %s", name, p.Path)
			}
		}
	}
}

// TestLoaderHonoursBuildConstraints: the loader vets the default
// build, so a file behind a build tag must not load. The testdata
// package declares one constant in two files under opposite
// constraints; loading both would be a duplicate-symbol type error.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	loader, pkgs, err := NewLoader(filepath.Join("testdata", "src", "buildtag"), ".")
	if err != nil {
		t.Fatalf("loading buildtag: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(loader.Fset.Position(f.Pos()).Filename))
	}
	if len(names) != 1 || names[0] != "default.go" {
		t.Errorf("loaded files %v, want only default.go", names)
	}
	if c, ok := pkgs[0].Pkg.Scope().Lookup("Variant").(*types.Const); !ok || c.Val().String() != `"default"` {
		t.Errorf("Variant resolves to %v, want the default build's constant", c)
	}
}

// TestLoaderSkipsNonModuleTrees: testdata (the seeded-violation
// packages), vendor, and any related/ reference checkout must never
// appear as analysis targets — go list ignores them, and the analyzer
// gate depends on that staying true.
func TestLoaderSkipsNonModuleTrees(t *testing.T) {
	_, pkgs := loadModule(t)
	for _, p := range pkgs {
		dir := filepath.ToSlash(p.Dir)
		for _, frag := range []string{"/testdata/", "/vendor/", "/related/"} {
			if strings.Contains(dir+"/", frag) {
				t.Errorf("package %s loaded from excluded tree %s", p.Path, p.Dir)
			}
		}
	}
}

// LoadDir serves the self-test harness; its edge cases are a missing
// or empty directory, and stray _test.go files next to testdata
// sources.
func TestLoadDirEdgeCases(t *testing.T) {
	loader, _ := loadModule(t)

	if _, err := loader.LoadDir(filepath.Join(t.TempDir(), "nope"), "x"); err == nil {
		t.Error("missing directory must error")
	}

	empty := t.TempDir()
	if _, err := loader.LoadDir(empty, "x"); err == nil || !strings.Contains(err.Error(), "no .go files") {
		t.Errorf("empty directory: got %v, want 'no .go files'", err)
	}

	// Only non-.go entries: still empty.
	if err := os.WriteFile(filepath.Join(empty, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(empty, "x"); err == nil {
		t.Error("directory without .go files must error")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte("package p\n\nfunc F() int { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A _test.go in a different package would fail type-checking if it
	// were included; LoadDir must skip it.
	if err := os.WriteFile(filepath.Join(dir, "p_test.go"), []byte("package p_test\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "lsvd/vettest/loaddir")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("want 1 file (p.go only), got %d", len(pkg.Files))
	}
}
