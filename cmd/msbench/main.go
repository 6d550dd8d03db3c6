// Command msbench regenerates the paper's tables and figures on the
// synthetic stand-in workloads. Performance is measured by the benchmark
// harness under bench/ (bash bench/run.sh), not here.
//
// Usage:
//
//	msbench -exp table1 -scale small -seed 42
//	msbench -exp all -scale tiny
//	msbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"modelslicing/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	scaleFlag := flag.String("scale", "small", "micro|tiny|small|medium")
	seed := flag.Int64("seed", 42, "random seed")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list {
		for _, id := range experiments.List() {
			fmt.Println(id)
		}
		return
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "msbench: -exp required (or -list)")
		os.Exit(2)
	}
	// Comma-separated ids share one process, so experiments derived from the
	// same trained study (fig5…fig8, table4, table5) reuse its models.
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.List()
	}
	for _, id := range ids {
		start := time.Now()
		out, err := experiments.Run(id, scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}
