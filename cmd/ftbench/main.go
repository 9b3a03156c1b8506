// Command ftbench runs the reproduction experiments E1–E13 (the README's
// experiment suite; -list names each one's claim) and prints the
// paper-shaped result tables.
//
// Usage:
//
//	ftbench                 # run everything, full grids
//	ftbench -run E1,E4      # selected experiments
//	ftbench -quick          # reduced grids (seconds, for smoke runs)
//	ftbench -list           # list experiments and the claims they reproduce
//	ftbench -csv results/   # also export every table as CSV
//	ftbench -benchjson f    # component benchmarks as JSON ("-" for stdout):
//	                        # the repo's recorded perf trajectory (BENCH_PR<n>.json)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/ftspanner/ftspanner/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	var (
		runIDs      = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		quick       = fs.Bool("quick", false, "reduced parameter grids")
		seed        = fs.Int64("seed", 42, "random seed")
		list        = fs.Bool("list", false, "list experiments and exit")
		csvDir      = fs.String("csv", "", "directory to export tables as CSV")
		parallel    = fs.Bool("parallel", false, "run experiments concurrently (reports still print in order)")
		benchjson   = fs.String("benchjson", "", "run the component benchmarks and write a JSON report to this path (- for stdout)")
		parallelism = fs.Int("parallelism", 4, "worker count for the -benchjson parallel build case")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchjson != "" {
		if *parallelism < 2 {
			return fmt.Errorf("-parallelism must be >= 2, got %d", *parallelism)
		}
		return runBenchJSON(*benchjson, out, *parallelism)
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	exps, err := selectExperiments(*runIDs)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	type outcome struct {
		rep     *experiment.Report
		err     error
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(exps))
	runOne := func(i int) {
		start := time.Now()
		rep, err := exps[i].Run(experiment.Config{Seed: *seed, Quick: *quick})
		outcomes[i] = outcome{rep: rep, err: err, elapsed: time.Since(start)}
	}
	if *parallel {
		var wg sync.WaitGroup
		for i := range exps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range exps {
			runOne(i)
		}
	}

	failed := 0
	for i, e := range exps {
		fmt.Fprintf(out, "=== %s: %s\n    %s\n\n", e.ID, e.Title, e.Claim)
		oc := outcomes[i]
		if oc.err != nil {
			return fmt.Errorf("%s: %w", e.ID, oc.err)
		}
		if err := oc.rep.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "  (%s in %s)\n\n", e.ID, oc.elapsed.Round(time.Millisecond))
		if !oc.rep.Pass {
			failed++
		}
		if *csvDir != "" {
			if err := exportCSV(*csvDir, oc.rep); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	fmt.Fprintf(out, "all %d experiment(s) passed\n", len(exps))
	return nil
}

func selectExperiments(ids string) ([]experiment.Experiment, error) {
	if ids == "" {
		return experiment.All(), nil
	}
	var out []experiment.Experiment
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiment.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		out = append(out, e)
	}
	return out, nil
}

func exportCSV(dir string, rep *experiment.Report) error {
	for i, t := range rep.Tables {
		name := fmt.Sprintf("%s_table%d.csv", strings.ToLower(rep.ID), i+1)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
