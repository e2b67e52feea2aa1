// Command repro regenerates the source paper's tables and figures from
// the harnesses in internal/repro, one subcommand per chapter:
//
//	repro ch2 [-seed 1]                      survey tables 2.1–2.9, Fig 2.3
//	repro ch3 [-artifact 3.1|3.3|3.4|3.5|3.6|all] [-budget 3000] [-runs 5]
//	          [-days 14] [-seed 1] [-ns 10,20,30,40]
//	repro ch4 [-artifact 4.6|4.7|4.8|4.9|4.10|all] [-requests 1500]
//	          [-service-ms 5] [-phase 2s] [-run 2s]
//	repro ch5 [-artifact 5.6|5.8|5.9|5.10|all] [-traces 500]
//	          [-sizes 500,1000,2000,4000,10000] [-endpoints 4000]
//	          [-seed 1] [-diff]
//
// Chapters 2, 3 and the ranking figures of chapter 5 (5.6, 5.8) are
// deterministic for a seed; chapter 4 and Figs 5.9/5.10 print wall-clock
// measurements.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"contexp/internal/repro/ch2"
	"contexp/internal/repro/ch3"
	"contexp/internal/repro/ch4"
	"contexp/internal/repro/ch5"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

var chapters = map[string]func(args []string, out io.Writer) error{
	"ch2": runCh2,
	"ch3": runCh3,
	"ch4": runCh4,
	"ch5": runCh5,
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: repro ch2|ch3|ch4|ch5 [flags]")
	}
	chapter, ok := chapters[args[0]]
	if !ok {
		return fmt.Errorf("unknown chapter %q (want ch2, ch3, ch4 or ch5)", args[0])
	}
	return chapter(args[1:], out)
}

// selector is the -artifact flag every figure chapter shares: "all" or
// one of the chapter's artefact ids.
type selector struct {
	ids  []string
	pick string
}

func artifactFlag(fs *flag.FlagSet, ids ...string) *selector {
	s := &selector{ids: ids, pick: "all"}
	fs.Var(s, "artifact", "which artifact: "+strings.Join(ids, ", ")+", or all")
	return s
}

func (s *selector) String() string { return s.pick }

func (s *selector) Set(v string) error {
	if v != "all" && !slices.Contains(s.ids, v) {
		return fmt.Errorf("want %s, or all", strings.Join(s.ids, ", "))
	}
	s.pick = v
	return nil
}

// want reports whether any of ids is selected.
func (s *selector) want(ids ...string) bool {
	return s.pick == "all" || slices.Contains(ids, s.pick)
}

// intList is a comma-separated integer flag ("10, 20,30").
type intList []int

func (l *intList) String() string {
	parts := make([]string, len(*l))
	for i, n := range *l {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (l *intList) Set(s string) error {
	*l = (*l)[:0]
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("bad integer %q", p)
		}
		*l = append(*l, n)
	}
	return nil
}

func runCh2(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro ch2", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "population shuffle seed (marginals are seed-independent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, err := fmt.Fprint(out, ch2.Generate(*seed).AllTables())
	return err
}

func runCh3(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro ch3", flag.ContinueOnError)
	sel := artifactFlag(fs, "3.1", "3.3", "3.4", "3.5", "3.6")
	budget := fs.Int("budget", 3000, "fitness evaluations per optimizer run")
	runs := fs.Int("runs", 5, "independent seeds per configuration")
	days := fs.Int("days", 14, "traffic profile length in days")
	seed := fs.Int64("seed", 1, "base random seed")
	ns := intList{10, 20, 30, 40}
	fs.Var(&ns, "ns", "experiment counts for the scaling study")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := ch3.EvalConfig{Budget: *budget, Runs: *runs, Days: *days, Seed: *seed}

	if sel.want("3.1") {
		tbl, err := ch3.Table3_1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tbl)
	}
	if sel.want("3.3") {
		fig, err := ch3.EvalFigure3_3(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
	}
	if sel.want("3.4") {
		fig, err := ch3.EvalFigure3_4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
	}
	if sel.want("3.5") {
		fig, err := ch3.EvalFigure3_5(cfg, ns)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
		fmt.Fprintln(out, fig.RenderTable3_3())
	}
	if sel.want("3.6") {
		fig, err := ch3.EvalFigure3_6(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
	}
	return nil
}

func runCh4(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro ch4", flag.ContinueOnError)
	sel := artifactFlag(fs, "4.6", "4.7", "4.8", "4.9", "4.10")
	requests := fs.Int("requests", 1500, "requests per arm for the overhead measurement")
	serviceMs := fs.Float64("service-ms", 5, "mean backend service time (ms)")
	phase := fs.Duration("phase", 2*time.Second, "duration of each strategy phase")
	runDur := fs.Duration("run", 2*time.Second, "duration of each scaling measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if sel.want("4.6") {
		fig, err := ch4.EvalFigure4_6(ch4.OverheadConfig{
			Requests:      *requests,
			ServiceTimeMs: *serviceMs,
			PhaseDuration: *phase,
			Seed:          1,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
	}
	if sel.want("4.7", "4.8") {
		cfg := ch4.DefaultParallelConfig()
		cfg.RunDuration = *runDur
		res, err := ch4.EvalFigure4_7And4_8(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	if sel.want("4.9", "4.10") {
		cfg := ch4.DefaultChecksConfig()
		cfg.RunDuration = *runDur
		res, err := ch4.EvalFigure4_9And4_10(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	return nil
}

func runCh5(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro ch5", flag.ContinueOnError)
	sel := artifactFlag(fs, "5.6", "5.8", "5.9", "5.10")
	traces := fs.Int("traces", 500, "traces per variant for the ranking scenarios")
	sizes := intList{500, 1000, 2000, 4000, 10000}
	fs.Var(&sizes, "sizes", "graph sizes (endpoints) for Fig 5.9")
	endpoints := fs.Int("endpoints", 4000, "graph size for Fig 5.10")
	seed := fs.Int64("seed", 1, "random seed")
	diff := fs.Bool("diff", false, "also print the topological difference of each scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}

	for _, scenario := range []struct {
		id   string
		eval func(traces int, seed int64) (*ch5.Figure5_6, error)
	}{{"5.6", ch5.EvalFigure5_6}, {"5.8", ch5.EvalFigure5_8}} {
		if !sel.want(scenario.id) {
			continue
		}
		fig, err := scenario.eval(*traces, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
		if *diff {
			for _, r := range fig.Results {
				fmt.Fprintln(out, r.Diff.Render())
			}
		}
	}
	if sel.want("5.9") {
		fig, err := ch5.EvalFigure5_9(sizes, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
	}
	if sel.want("5.10") {
		fig, err := ch5.EvalFigure5_10(*endpoints, nil, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fig.Render())
	}
	return nil
}
