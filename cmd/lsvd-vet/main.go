// lsvd-vet runs the lsvd analyzer suite (annform, chanleak, ctxflow,
// deferorder, errclass, goroguard, lockheld, lockorder, sectmath,
// spinwait — see DESIGN.md §15) over the module. Stdlib only: packages
// load through `go list -export` and go/importer, not
// golang.org/x/tools.
//
// Usage:
//
//	lsvd-vet [-dir root] [-json] [-baseline file] [-write-baseline file] [packages...]
//
// Packages default to ./... relative to -dir (default: the current
// directory).
//
// Exit status and modes:
//
//   - Default: print human-readable diagnostics, exit 1 if any.
//   - -json: print the findings document (stable order, fingerprints)
//     to stdout; same exit rule.
//   - -baseline vet-baseline.json: exit 1 only on findings whose
//     fingerprint is NOT in the baseline. Baseline entries that no
//     longer fire are reported to stderr as stale (exit stays 0) —
//     regenerate the file so paid-off debt cannot mask a regression.
//   - -write-baseline vet-baseline.json: write the current findings as
//     the new baseline and exit 0. Review the diff like code: every
//     entry is a deliberately parked defect.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lsvd/internal/analysis"
)

func main() {
	dir := flag.String("dir", ".", "module directory to analyze from")
	list := flag.Bool("analyzers", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as stable JSON on stdout")
	baseline := flag.String("baseline", "", "fail only on findings not in this baseline file")
	writeBaseline := flag.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absRoot, err := filepath.Abs(*dir)
	if err != nil {
		fatal(err)
	}
	loader, pkgs, err := analysis.NewLoader(*dir, patterns...)
	if err != nil {
		fatal(err)
	}
	diags := analysis.Run(loader, pkgs, analysis.Analyzers())
	findings := analysis.MakeFindings(diags, absRoot)

	if *writeBaseline != "" {
		bl := &analysis.Baseline{
			Comment:  "Findings lsvd-vet tolerates. Regenerate with `make vet-lsvd-update-baseline`; every entry is parked debt and should be rare.",
			Findings: findings,
		}
		if err := os.WriteFile(*writeBaseline, analysis.EncodeBaseline(bl), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "lsvd-vet: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}

	if *asJSON {
		os.Stdout.Write(analysis.EncodeFindings(findings))
	}

	if *baseline != "" {
		bl, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		fresh, stale := analysis.DiffBaseline(findings, bl)
		for _, f := range stale {
			fmt.Fprintf(os.Stderr, "lsvd-vet: stale baseline entry %s (%s: %s) — no longer reported, regenerate %s\n",
				f.Fingerprint, f.Analyzer, f.File, *baseline)
		}
		if !*asJSON {
			for _, f := range fresh {
				fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
			}
		}
		if len(fresh) > 0 {
			fmt.Fprintf(os.Stderr, "lsvd-vet: %d new finding(s) not in %s\n", len(fresh), *baseline)
			os.Exit(1)
		}
		return
	}

	if !*asJSON {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lsvd-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsvd-vet:", err)
	os.Exit(2)
}
