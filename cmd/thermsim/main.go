// Command thermsim runs the compact RC thermal simulator on one test
// session: steady-state by default, or a transient trace with -transient.
//
// Usage:
//
//	thermsim -workload alpha21364 -active IntExec,IntReg
//	thermsim -workload figure1 -active C2,C3,C4 -transient -duration 5
//	thermsim -flp chip.flp -spec tests.txt -active B00,B01
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/thermal"
)

func main() {
	var (
		workload  = flag.String("workload", "", "builtin workload: alpha21364 or figure1")
		flpPath   = flag.String("flp", "", "floorplan file (HotSpot .flp format)")
		specPath  = flag.String("spec", "", "test spec file (name functional test seconds)")
		activeStr = flag.String("active", "", "comma-separated core names under test (empty = all)")
		transient = flag.Bool("transient", false, "run a transient instead of steady state")
		duration  = flag.Float64("duration", 5, "transient duration (s)")
		step      = flag.Float64("step", 0, "transient step (s), 0 = auto")
		grid      = flag.Int("grid", 0, "also solve an N×N grid model and print its heatmap")
		peakBytes = flag.String("peak-bytes", "", "grid factorization peak memory with optional K/M/G suffix, e.g. 512M; the factor spills panels to disk past it (empty: 2G)")
		spillDir  = flag.String("spill-dir", "", "directory for out-of-core factor panel files (empty: os.TempDir)")
	)
	flag.Parse()

	peak, err := cliutil.ParseByteSize(*peakBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: -peak-bytes:", err)
		os.Exit(1)
	}
	gopts := thermal.GridOptions{PeakBytesBudget: peak, SpillDir: *spillDir}
	if err := run(*workload, *flpPath, *specPath, *activeStr, *transient, *duration, *step, *grid, gopts); err != nil {
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(1)
	}
}

func run(workload, flpPath, specPath, activeStr string, transient bool, duration, step float64, grid int, gopts thermal.GridOptions) error {
	spec, err := cliutil.LoadWorkload(workload, flpPath, specPath)
	if err != nil {
		return err
	}
	fp := spec.Floorplan()
	var active []int
	if activeStr == "" {
		for i := 0; i < fp.NumBlocks(); i++ {
			active = append(active, i)
		}
	} else {
		for _, name := range strings.Split(activeStr, ",") {
			i, err := fp.IndexOf(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			active = append(active, i)
		}
	}
	model, err := thermal.NewModel(fp, thermal.DefaultPackageConfig())
	if err != nil {
		return err
	}
	pm, err := spec.Profile().TestPowerMap(active)
	if err != nil {
		return err
	}

	if !transient {
		res, err := model.SteadyState(pm)
		if err != nil {
			return err
		}
		fmt.Printf("steady state, %d active core(s), %.1f W total\n", len(active), res.TotalPower())
		fmt.Print(res.Describe())
		if grid > 0 {
			gm, err := thermal.NewGridModelWithOptions(fp, thermal.DefaultPackageConfig(), grid, grid, gopts)
			if err != nil {
				return err
			}
			gres, err := gm.SteadyState(pm)
			if err != nil {
				return err
			}
			fmt.Printf("\ngrid model (%d×%d, nd ordering, %s backend): max %.2f °C (block model: %.2f °C)\n",
				grid, grid, gm.SolverBackend(), gres.MaxTemp(), res.MaxTemp())
			fs := gm.FactorStats()
			fmt.Printf("factor: %s kernel, %v numeric, %d nnz, %d panels (max width %d, %d padded zeros)\n",
				fs.Mode, fs.FactorTime.Round(time.Microsecond), fs.FactorNNZ,
				fs.Panels, fs.MaxPanelWidth, fs.PaddedZeros)
			switch {
			case fs.SpilledPanels > 0:
				fmt.Printf("spill: %d panels (%d bytes) out of core, peak resident %d of %d bytes\n",
					fs.SpilledPanels, fs.SpilledBytes, fs.PeakResidentBytes, fs.PeakFactorBytes)
			case fs.SpillDegraded:
				fmt.Println("spill: degraded — spill device failed or budget below the out-of-core floor, factored in core (budget waived)")
			}
			fmt.Print(gres.Heatmap())
		}
		return nil
	}
	if grid > 0 {
		return fmt.Errorf("-grid is only available for steady-state runs")
	}

	tr, err := model.Transient(pm, thermal.TransientOptions{
		Duration:    duration,
		Step:        step,
		SampleEvery: duration / 20,
	})
	if err != nil {
		return err
	}
	fmt.Printf("transient, %d active core(s), %.1f s\n", len(active), duration)
	fmt.Printf("%10s %12s %12s\n", "t(s)", "maxT(°C)", "sink(°C)")
	for _, s := range tr.Samples {
		fmt.Printf("%10.3f %12.3f %12.3f\n", s.Time, s.MaxTemp, s.SinkTemp)
	}
	fmt.Printf("final max temperature: %.2f °C\n", tr.FinalMaxTemp())
	return nil
}
