// Command lsvd-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md's per-experiment index). Results print as
// aligned text and are optionally written as CSV files.
//
// Usage:
//
//	lsvd-bench -list
//	lsvd-bench [-scale 32] [-csv results/] all
//	lsvd-bench fig6 fig12 table5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lsvd/internal/experiments"
)

func main() {
	scale := flag.Int64("scale", 32, "scale-down factor for volumes and write volumes (paper sizes / scale)")
	seed := flag.Int64("seed", 1, "workload seed")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = experiments.Names()
	}
	env := experiments.Env{Scale: *scale, Seed: *seed}
	ctx := context.Background()

	exit := 0
	for _, name := range names {
		start := time.Now()
		tab, err := experiments.Run(ctx, env, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit = 1
			continue
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}
