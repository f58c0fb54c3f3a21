// Command perfbench is the repository benchmark. One run drives the three
// public surfaces of optchain — the library (Engine.PlaceWorkload), the HTTP
// service (optchain-serve, as its own process) and the paper's simulation
// (Engine.Run) — and prints one JSON result line.
//
// Every workload runs all three surfaces, so every run reports every
// end-to-end metric; the workload decides which surface gets the bulk of
// the run (its "main" phase) and which run at a small fixed "probe" size:
//
//	place-bitcoin-1m  main: PlaceWorkload of 1M bitcoin txs + snapshot/restore
//	serve-mix-30k     main: open-loop 30k tx/s against optchain-serve
//	sim-bitcoin-6k    main: Engine.Run, 200k bitcoin txs at 6000 tx/s
//
// With -trace 1 the run instead reports per-layer metrics, timed around the
// calls each phase makes into the program (see README.md).
//
// Usage (normally through run.py, which builds the binaries):
//
//	perfbench -workload place-bitcoin-1m -seed 1 -seconds 20 -trace 0 \
//	    -serve-bin .bench_build/bin/optchain-serve -workdir .bench_build/run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// Phase sizes. Each main phase loops (or, for serving, keeps the open loop
// running) for mainShare of -seconds; each probe phase gets probeShare.
const (
	placeMainTxs  = 1_000_000
	placeProbeTxs = 250_000
	simMainTxs    = 200_000
	simProbeTxs   = 80_000
	serveRate     = 30_000 // offered tx/s, split over serveConns connections
	serveConns    = 2
	serveSpec     = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15"
	simRate       = 6000
	simValidators = 16
	shards        = 16
	mainShare     = 0.7
	probeShare    = 0.15
	setupRepeats  = 3
	// subSeeds is how many input streams each run derives from its seed;
	// exact metrics are their mean, which narrows the seed-to-seed spread.
	subSeeds = 4
	// maxGenLagMS bounds the open-loop generator's p99 lateness; a run
	// whose generator fell further behind its schedule is invalid, because
	// the server did not receive the offered load.
	maxGenLagMS = 50
)

// workloads maps each workload name to the surface its main phase drives.
var workloads = map[string]string{
	"place-bitcoin-1m": "place",
	"serve-mix-30k":    "serve",
	"sim-bitcoin-6k":   "sim",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wl       = flag.String("workload", "place-bitcoin-1m", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 24, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		serveBin = flag.String("serve-bin", "", "path to the optchain-serve binary")
		workdir  = flag.String("workdir", "", "scratch directory for server state")
		commit   = flag.String("commit", "unknown", "commit or source digest recorded in the fingerprint")
	)
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace == 1, *serveBin, *workdir, *commit); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds int, trace bool, serveBin, workdir, commit string) error {
	lead, ok := workloads[wl]
	if !ok {
		return fmt.Errorf("unknown workload %q", wl)
	}
	if seconds < 1 || serveBin == "" || workdir == "" {
		return fmt.Errorf("need -seconds >= 1, -serve-bin and -workdir")
	}
	if err := registerTraced(); err != nil {
		return err
	}
	budget := func(surface string) time.Duration {
		share := probeShare
		if surface == lead {
			share = mainShare
		}
		return time.Duration(share * float64(seconds) * float64(time.Second))
	}
	placeTxs, simTxs := placeProbeTxs, simProbeTxs
	if lead == "place" {
		placeTxs = placeMainTxs
	}
	if lead == "sim" {
		simTxs = simMainTxs
	}

	fp := fingerprint(commit)
	line, _ := json.Marshal(map[string]any{"fingerprint": fp, "workload": wl, "seed": seed, "trace": trace})
	fmt.Println(string(line))

	// Set-up: generate and encode the serving inputs and start a server,
	// setupRepeats times. The serve phase runs one session per server kept:
	// all of them when it is the main phase, so that the server state, and
	// with it the snapshot stalls, stays the size of one session; else the
	// last one.
	kept := 1
	if lead == "serve" {
		kept = setupRepeats
	}
	sessionN := int(budget("serve").Seconds() * serveRate / float64(kept))
	var (
		setups   []float64
		sessions []session
	)
	defer func() { // a no-op for servers already stopped
		for _, se := range sessions {
			se.srv.kill()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		load, err := buildServeLoad(seed*setupRepeats+int64(i), sessionN)
		if err != nil {
			return err
		}
		srv, err := startServer(serveBin, fmt.Sprintf("%s/server-%d", workdir, i))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sessions = append(sessions, session{srv, load})
		if len(sessions) > kept {
			if err := sessions[0].srv.stop(); err != nil {
				return fmt.Errorf("stop set-up server: %w", err)
			}
			sessions = sessions[1:]
		}
	}

	sv, err := runServe(sessions)
	if err != nil {
		return fmt.Errorf("serve phase: %w", err)
	}
	debug.FreeOSMemory()
	pl, err := runPlace(seed, placeTxs, budget("place"), trace)
	if err != nil {
		return fmt.Errorf("place phase: %w", err)
	}
	debug.FreeOSMemory()
	sm, err := runSim(seed, simTxs, budget("sim"), trace)
	if err != nil {
		return fmt.Errorf("sim phase: %w", err)
	}

	res := result{
		Correct:   pl.correct && sv.correct && sm.correct,
		Attempted: pl.attempted + sv.attempted + sm.attempted,
		Failed:    pl.failed + sv.failed + sm.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		proc := map[string]procStats{"place": pl.procCost(), "serve": sv.proc, "sim": sm.procCost()}[lead]
		pl.layerMetrics(res.Metrics)
		sv.layerMetrics(res.Metrics)
		sm.layerMetrics(res.Metrics)
		res.Metrics["proc.alloc_bytes_per_tx"] = metric{proc.allocPerTx, "B"}
		res.Metrics["proc.gc_cycles"] = metric{proc.gcCycles, "count"}
	} else {
		pl.endToEnd(res.Metrics)
		sv.endToEnd(res.Metrics)
		sm.endToEnd(res.Metrics)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// procStats is the Go runtime's cost for one measured call, counted for
// the whole process.
type procStats struct {
	allocPerTx float64
	gcCycles   float64
}

// subSeed derives the run's i-th input stream seed (i cycles over
// subSeeds).
func subSeed(seed int64, i int) int64 { return seed*subSeeds + int64(i%subSeeds) }

// cpuTime is the process's user plus system CPU time. Rates and restore
// times are measured in it rather than in wall time, so time the host
// does not give this process (other tenants, hypervisor steal) does not
// count; the Go runtime's GC threads do count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method, except
// that the median of an even count averages the two middle values; +Inf
// entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 && q == 0.5 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
