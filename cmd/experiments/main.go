// Command experiments regenerates every table and figure of the GRAFICS
// paper's evaluation section against the synthetic corpora; -fig selects
// figures by their number in the paper, or all of them.
//
//	experiments -fig all              # run everything at harness scale
//	experiments -fig 11 -scale full   # one figure at paper scale
//	experiments -fig 13 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiment"
)

// writeTSNE dumps each method's 2-D t-SNE projection as
// <dir>/fig6-<method>.tsv with columns x, y, floor — ready for gnuplot or
// any spreadsheet.
func writeTSNE(dir string, rows []experiment.Fig06Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", dir, err)
	}
	for _, r := range rows {
		path := filepath.Join(dir, "fig6-"+strings.ToLower(r.Method)+".tsv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		fmt.Fprintln(f, "x\ty\tfloor")
		for i, pt := range r.TSNE {
			fmt.Fprintf(f, "%.6f\t%.6f\t%d\n", pt[0], pt[1], r.Labels[i])
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("wrote %s (%d points)\n", path, len(r.TSNE))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to reproduce: 1, 6, 8, 9, 11, 12, 13, 14, 15, 16, 17, or all")
	scaleName := fs.String("scale", "harness", "corpus scale: tiny | harness | full")
	seed := fs.Int64("seed", 1, "root seed")
	tsvDir := fs.String("tsv", "", "when set with -fig 6, write per-method t-SNE projections as TSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale experiment.Scale
	switch *scaleName {
	case "tiny":
		// Smoke scale for CI and tests: every figure completes in seconds
		// on a tiny synthetic corpus (the numbers are not paper-faithful).
		scale = experiment.Scale{MicrosoftBuildings: 2, RecordsPerFloor: 25, SamplesPerEdge: 25, Repetitions: 1}
	case "harness":
		scale = experiment.ScaleHarness()
	case "full":
		scale = experiment.ScalePaper()
	default:
		return fmt.Errorf("unknown scale %q (want tiny, harness, or full)", *scaleName)
	}

	runners := map[string]func() error{
		"1": func() error {
			r, err := experiment.Fig01(scale.RecordsPerFloor*8, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig01(os.Stdout, r)
		},
		"6": func() error {
			rows, err := experiment.Fig06(scale.RecordsPerFloor, scale.SamplesPerEdge, *seed)
			if err != nil {
				return err
			}
			if *tsvDir != "" {
				if err := writeTSNE(*tsvDir, rows); err != nil {
					return err
				}
			}
			return experiment.PrintFig06(os.Stdout, rows)
		},
		"8": func() error {
			rows, err := experiment.Fig08(scale.RecordsPerFloor, scale.SamplesPerEdge, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig08(os.Stdout, rows)
		},
		"9": func() error {
			summaries, err := experiment.Fig09(scale, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig09(os.Stdout, summaries)
		},
		"11": func() error {
			rows, err := experiment.Fig11(scale, nil, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig11(os.Stdout, rows)
		},
		"12": func() error {
			rows, err := experiment.Fig12(scale, nil, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig12(os.Stdout, rows)
		},
		"13": func() error {
			rows, err := experiment.Fig13(scale, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig13(os.Stdout, rows)
		},
		"14": func() error {
			rows, err := experiment.Fig14(scale, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig14(os.Stdout, rows)
		},
		"15": func() error {
			rows, err := experiment.Fig15(scale, nil, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig15(os.Stdout, rows)
		},
		"16": func() error {
			rows, err := experiment.Fig16(scale, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig16(os.Stdout, rows)
		},
		"17": func() error {
			rows, err := experiment.Fig17(scale, nil, *seed)
			if err != nil {
				return err
			}
			return experiment.PrintFig17(os.Stdout, rows)
		},
	}
	order := []string{"1", "6", "8", "9", "11", "12", "13", "14", "15", "16", "17"}

	want := strings.Split(*fig, ",")
	if *fig == "all" {
		want = order
	}
	for _, f := range want {
		runner, ok := runners[strings.TrimSpace(f)]
		if !ok {
			return fmt.Errorf("unknown figure %q", f)
		}
		start := time.Now()
		if err := runner(); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		fmt.Printf("(figure %s done in %v)\n\n", f, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
