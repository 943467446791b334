// Command experiments regenerates the figures and tables of the DATE'05
// paper plus the ablations of internal/experiments/ablations.go.
//
// Usage:
//
//	experiments                 # everything
//	experiments -run fig1       # one artifact: fig1, fig5, table1, claims,
//	                            # weights, ordering, fidelity, baseline, scaling
//	experiments -run fleet -fleet 16 -parallel -cachedir .oracle-cache
//
// With -cachedir every distinct thermal simulation is persisted to a
// content-addressed store, so repeated invocations (any experiment, any
// order) warm-start from disk instead of re-simulating. With -gridoracle N
// session validation runs on an N×N grid-resolution thermal model — the
// simulation-heavy configuration the persistent store pays off most on.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/oraclestore"
	"repro/internal/oraclestore/remote"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// options carries the flag values into run.
type options struct {
	parallel   bool
	gridres    []int
	grid       thermal.GridOptions // every grid model of the run: peak bytes, spill dir
	cacheDir   string
	gridOracle int
	fleetSize  int
	fleetSeed  int64
	storeNodes []string
}

func main() {
	var (
		which = flag.String("run", "all",
			"experiment: all, fig1, fig5, table1, claims, weights, ordering, fidelity, baseline, scaling, oracle, gap, gridcheck, gridres, fleet")
		parallel = flag.Bool("parallel", false,
			"fan experiment sweeps across GOMAXPROCS goroutines (tables are byte-identical to serial runs)")
		gridres = flag.String("gridres", "",
			"comma-separated grid-resolution ladder for -run gridres (e.g. 32,64,128); "+
				"runs the Table 1 flow per resolution and prints solver backend and factor/solve timings")
		peakBytes = flag.String("peak-bytes", "",
			"grid factorization peak memory with optional K/M/G suffix, e.g. 2G; "+
				"when set, the grid always factors, spilling panels to disk past it (empty: no budget; grids past 2^24 factor non-zeros solve by CG)")
		spillDir = flag.String("spill-dir", "",
			"directory for out-of-core factor panel files (empty: os.TempDir)")
		cacheDir = flag.String("cachedir", "",
			"directory of the persistent oracle store; repeated runs warm-start from it across processes")
		gridOracle = flag.Int("gridoracle", 0,
			"validate sessions on an NxN grid-resolution model instead of the block model (0 = block)")
		fleetSize = flag.Int("fleet", 8,
			"scenario count for -run fleet (builtins + seeded random-floorplan ladder)")
		fleetSeed  = flag.Int64("seed", 11, "base seed for the fleet's random scenarios")
		storeNodes = flag.String("storenodes", "",
			"comma-separated thermstore node addresses; the -cachedir store shards reads and writes "+
				"across them by content address (tier 3). A dead node degrades to local-only")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ladder, err := parseGridRes(*gridres)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	peak, err := cliutil.ParseByteSize(*peakBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -peak-bytes:", err)
		os.Exit(1)
	}

	nodes := splitAddrs(*storeNodes)
	if len(nodes) > 0 && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -storenodes requires -cachedir (the sharded tier backs a local store)")
		os.Exit(1)
	}

	// Profiles are finalized before any exit path below: a profile of a
	// *failing* run is precisely when you want readable pprof output, so
	// no os.Exit may come between StartCPUProfile and the stop.
	var cpuFile *os.File
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	runErr := run(*which, options{
		parallel:   *parallel,
		gridres:    ladder,
		grid:       thermal.GridOptions{PeakBytesBudget: peak, SpillDir: *spillDir},
		cacheDir:   *cacheDir,
		gridOracle: *gridOracle,
		fleetSize:  *fleetSize,
		fleetSeed:  *fleetSeed,
		storeNodes: nodes,
	})

	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
			if runErr == nil {
				os.Exit(1)
			}
		}
	}

	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap after a GC into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseGridRes parses the -gridres ladder; empty selects the default rungs.
func parseGridRes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{16, 32, 64, 96}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -gridres entry %q (want integers >= 2)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(which string, opts options) error {
	wants := func(name string) bool { return which == "all" || which == name }
	ran := false

	var store *oraclestore.Store
	if opts.cacheDir != "" {
		var err error
		store, err = openStore(opts.cacheDir, opts.storeNodes)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	if wants("fig1") {
		ran = true
		res, err := experiments.RunFigure1()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}

	var env *experiments.Env
	needEnv := false
	for _, name := range []string{"fig5", "table1", "claims", "weights", "ordering", "fidelity", "baseline", "oracle", "gap", "gridcheck", "gridres"} {
		if wants(name) {
			needEnv = true
		}
	}
	if needEnv {
		var err error
		env, err = experiments.NewEnvWithOptions(testspec.Alpha21364(), thermal.DefaultPackageConfig(), experiments.EnvOptions{
			Store:   store,
			GridRes: opts.gridOracle,
			Grid:    opts.grid,
		})
		if err != nil {
			return err
		}
		env.Parallel = opts.parallel
	}

	if wants("fig5") {
		ran = true
		res, err := experiments.RunFigure5(env)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("table1") {
		ran = true
		res, err := experiments.RunTable1(env)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("claims") {
		ran = true
		grid, err := experiments.RunTable1(env)
		if err != nil {
			return err
		}
		fmt.Println(experiments.CheckClaims(grid).Render())
	}
	if wants("weights") {
		ran = true
		res, err := experiments.RunWeights(env)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("ordering") {
		ran = true
		res, err := experiments.RunOrdering(env)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("fidelity") {
		ran = true
		res, err := experiments.RunFidelity(env, 80, 7)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("baseline") {
		ran = true
		res, err := experiments.RunBaseline(env, 165)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("oracle") {
		ran = true
		res, err := experiments.RunOracleComparison(env)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("gap") {
		ran = true
		res, err := experiments.RunOptimalityGap(env, []float64{150, 165, 185})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("gridcheck") {
		ran = true
		res, err := experiments.RunGridCheck(env, 32)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("gridres") {
		ran = true
		res, err := experiments.RunGridScale(env, opts.gridres, opts.grid)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("scaling") {
		ran = true
		res, err := experiments.RunScaling([]int{15, 30, 60, 120}, 11, opts.parallel)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if wants("fleet") {
		ran = true
		scens, err := experiments.DefaultFleet(opts.fleetSize, opts.fleetSeed)
		if err != nil {
			return err
		}
		fl := &experiments.Fleet{
			Scenarios: scens,
			Parallel:  opts.parallel,
			Store:     store,
			GridRes:   opts.gridOracle,
			Grid:      opts.grid,
		}
		res, err := fl.Run()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	if env != nil {
		hits, misses := env.Oracle.Stats()
		total := hits + misses
		if total > 0 {
			fmt.Printf("oracle cache: %d queries, %d distinct, %d served from cache (%.1f%% hit rate)\n",
				total, misses, hits, 100*float64(hits)/float64(total))
		}
		if env.StoreCache != nil {
			sh, sm := env.StoreCache.Stats()
			fmt.Printf("oracle store: %d loaded at open, %d answered from disk, %d simulated and persisted\n",
				env.StoreCache.Loaded(), sh, sm)
		}
	}
	if store != nil && store.HasRemote() {
		// Write-behind: ship what this run grew before the process exits, so
		// the next run — on any machine of the cluster — warm-starts from it.
		if _, err := store.PushRemote(); err != nil {
			return err
		}
		rs := store.RemoteStats()
		fmt.Printf("store cluster: %d fetch hits, %d misses, %d errors; %d records absorbed, %d files pushed (%d push errors)\n",
			rs.FetchHits, rs.FetchMisses, rs.FetchErrors, rs.AbsorbedRecords, rs.PushedFiles, rs.PushErrors)
	}
	return nil
}

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// openStore opens the persistent oracle store, attaching the sharded remote
// tier when node addresses were given.
func openStore(dir string, nodes []string) (*oraclestore.Store, error) {
	if len(nodes) == 0 {
		return oraclestore.Open(dir)
	}
	client, err := remote.NewClient(nodes, remote.ClientOptions{})
	if err != nil {
		return nil, err
	}
	return oraclestore.OpenWithOptions(dir, oraclestore.StoreOptions{Remote: client})
}
