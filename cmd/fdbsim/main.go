// Command fdbsim regenerates every table and figure of Keller & Lindstrom
// 1985 from the funcdb implementation.
//
// Usage:
//
//	fdbsim [-seed N] [-table 1|2|3|all] [-figure 2.1|2.2|2.3|3.1|all] [-ablations]
//
// With no flags it prints everything: Tables I-III, Figures 2-1/2-2/2-3/3-1
// and the ablation studies.
package main

import (
	"flag"
	"fmt"
	"os"

	"funcdb/internal/experiments"
	"funcdb/internal/topo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fdbsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fdbsim", flag.ContinueOnError)
	seed := fs.Int64("seed", experiments.DefaultSeed, "workload seed (the published tables use the default)")
	table := fs.String("table", "", "reproduce one table: 1, 2, 3 or all")
	figure := fs.String("figure", "", "reproduce one figure: 2.1, 2.2, 2.3, 3.1 or all")
	ablations := fs.Bool("ablations", false, "run the ablation studies")
	compare := fs.Bool("compare", false, "print tables side by side with the paper's published values")
	dot := fs.Bool("dot", false, "emit DOT for figure 2.1 instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *table {
	case "", "1", "2", "3", "all":
	default:
		return fmt.Errorf("unknown -table %q (1, 2, 3 or all)", *table)
	}
	switch *figure {
	case "", "2.1", "2.2", "2.3", "3.1", "all":
	default:
		return fmt.Errorf("unknown -figure %q (2.1, 2.2, 2.3, 3.1 or all)", *figure)
	}

	all := *table == "" && *figure == "" && !*ablations
	if all {
		*table, *figure, *ablations = "all", "all", true
	}

	if *table == "1" || *table == "all" {
		grid, err := experiments.TableI(*seed)
		if err != nil {
			return err
		}
		if *compare {
			fmt.Println(experiments.FormatComparisonI(grid))
		} else {
			fmt.Println(experiments.FormatPlyGrid(grid))
		}
	}
	if *table == "2" || *table == "all" {
		grid, err := experiments.TableII(*seed)
		if err != nil {
			return err
		}
		if *compare {
			fmt.Println(experiments.FormatComparisonSpeedup(grid, experiments.PaperTableII))
		} else {
			fmt.Println(experiments.FormatSpeedupGrid(grid))
		}
	}
	if *table == "3" || *table == "all" {
		grid, err := experiments.TableIII(*seed)
		if err != nil {
			return err
		}
		if *compare {
			fmt.Println(experiments.FormatComparisonSpeedup(grid, experiments.PaperTableIII))
		} else {
			fmt.Println(experiments.FormatSpeedupGrid(grid))
		}
	}

	if *figure == "2.1" || *figure == "all" {
		summary, dotSrc, err := experiments.Figure21()
		if err != nil {
			return err
		}
		if *dot {
			fmt.Println(dotSrc)
		} else {
			fmt.Println(summary)
		}
	}
	if *figure == "2.2" || *figure == "all" {
		sweep := experiments.Figure22Sweep(8, []int{64, 256, 1024, 4096, 16384})
		fmt.Println(experiments.FormatFigure22(sweep))
	}
	if *figure == "2.3" || *figure == "all" {
		res, err := experiments.Figure23()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure23(res))
	}
	if *figure == "3.1" || *figure == "all" {
		res, err := experiments.Figure31()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure31(res))
	}

	if *ablations {
		if err := printAblations(*seed); err != nil {
			return err
		}
	}
	return nil
}

func printAblations(seed int64) error {
	fmt.Println("Ablation B: leniency vs strict sequencing (14% updates, 3 relations)")
	len14, err := experiments.RunLeniencyAblation(14, 3, seed)
	if err != nil {
		return err
	}
	fmt.Printf("  lenient: work %d depth %4d  max ply %3d  avg %5.1f\n",
		len14.Lenient.Work, len14.Lenient.Depth, len14.Lenient.MaxWidth, len14.Lenient.AvgWidth)
	fmt.Printf("  strict:  work %d depth %4d  max ply %3d  avg %5.1f\n\n",
		len14.Strict.Work, len14.Strict.Depth, len14.Strict.MaxWidth, len14.Strict.AvgWidth)

	fmt.Println("Ablation A: relation representation (14% updates, 3 relations)")
	reps, err := experiments.RunRepresentationAblation(14, 3, seed)
	if err != nil {
		return err
	}
	for _, r := range reps {
		fmt.Printf("  %-6s work %6d  depth %4d  max ply %3d  avg %5.1f  created %5d  shared %5d\n",
			r.Rep, r.Plies.Work, r.Plies.Depth, r.Plies.MaxWidth, r.Plies.AvgWidth, r.Created, r.Shared)
	}
	fmt.Println()

	fmt.Println("Ablation D: placement policy on the 8-node hypercube (14% updates, 3 relations)")
	pols, err := experiments.RunPlacementAblation(14, 3, topo.NewHypercube(3), seed)
	if err != nil {
		return err
	}
	for _, p := range pols {
		fmt.Printf("  %-10s speedup %5.2f  efficiency %4.2f  comm events %6d\n",
			p.Policy, p.Result.Speedup, p.Result.Efficiency, p.Result.CommEvents)
	}
	fmt.Println()

	fmt.Println("Ablation D': static list scheduling vs dynamic work diffusion (14% updates, 3 relations)")
	dyn, err := experiments.RunDynamicAblation(14, 3, topo.NewHypercube(3), seed)
	if err != nil {
		return err
	}
	fmt.Printf("  static pressure:   speedup %5.2f  comm events %5d\n",
		dyn.Static.Speedup, dyn.Static.CommEvents)
	fmt.Printf("  dynamic diffusion: speedup %5.2f  comm events %5d  exports %4d\n\n",
		dyn.Dynamic.Speedup, dyn.Dynamic.CommEvents, dyn.Dynamic.Steals)

	fmt.Println("Ablation E: merge ordering (24% updates, 5 relations, 4 clients)")
	mo, err := experiments.RunMergeOrderAblation(24, 5, 4, seed)
	if err != nil {
		return err
	}
	fmt.Printf("  arrival order: depth %4d  max ply %3d  avg %5.1f\n",
		mo.Arrival.Depth, mo.Arrival.MaxWidth, mo.Arrival.AvgWidth)
	fmt.Printf("  relation-grouped: depth %4d  max ply %3d  avg %5.1f\n\n",
		mo.Grouped.Depth, mo.Grouped.MaxWidth, mo.Grouped.AvgWidth)

	fmt.Println("Machine scaling: hypercube sweep (4% updates, 1 relation)")
	points, err := experiments.RunHypercubeScaleSweep(4, 1, 6, seed)
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Printf("  %3d PEs: speedup %6.2f\n", pt.PEs, pt.Speedup)
	}
	return nil
}
