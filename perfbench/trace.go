package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"optchain"
)

// Traced runs swap two registered names in for the real ones: a workload
// source that delegates to bitcoin and times each Next, and a strategy that
// delegates to OptChain and times each Place. Both are registered through
// the library's public extension points, so the program itself is not
// changed; the runs check that decisions stay identical.
const (
	tracedWorkload = "perfbench-bitcoin"
	tracedStrategy = "perfbench-optchain"
)

// tracer accumulates the spans and counts of the wrappers. The benchmark
// places and simulates on one goroutine at a time, and the simulation calls
// its strategy from its own single event loop, so no locking is needed.
type tracer struct {
	genTime    time.Duration
	placeTime  time.Duration
	rawRefs    int64 // input references as generated
	uniqueRefs int64 // input references after the engine's dedup
}

var tr tracer

func (t *tracer) reset() { *t = tracer{} }

type timedSource struct {
	inner optchain.WorkloadSource
}

func (s timedSource) Next(tx *optchain.WorkloadTx) bool {
	t0 := time.Now()
	ok := s.inner.Next(tx)
	tr.genTime += time.Since(t0)
	if ok {
		tr.rawRefs += int64(len(tx.Inputs))
	}
	return ok
}

func (s timedSource) Name() string { return s.inner.Name() }

type timedPlacer struct {
	inner optchain.Placer
}

func (p timedPlacer) Place(u optchain.Node, inputs []optchain.Node) int {
	t0 := time.Now()
	s := p.inner.Place(u, inputs)
	tr.placeTime += time.Since(t0)
	tr.uniqueRefs += int64(len(inputs))
	return s
}

func (p timedPlacer) Assignment() *optchain.Assignment { return p.inner.Assignment() }
func (p timedPlacer) Name() string                     { return p.inner.Name() }

// registerTraced adds the two wrappers to the registries.
func registerTraced() error {
	err := optchain.RegisterWorkload(tracedWorkload, func(p optchain.WorkloadParams) (optchain.WorkloadSource, error) {
		inner, err := optchain.NewWorkloadSource(placeWorkload, p)
		if err != nil {
			return nil, err
		}
		if _, ok := inner.(optchain.WorkloadObserver); ok {
			return nil, fmt.Errorf("%s is feedback-aware; the timing wrapper does not forward Observe", placeWorkload)
		}
		return timedSource{inner}, nil
	})
	if err != nil {
		return err
	}
	// A one-transaction dataset satisfies NewOptChainPlacer; its capacity
	// hint only pre-sizes the placer's slabs.
	stub, err := optchain.GenerateDataset(optchain.DatasetConfig{N: 1})
	if err != nil {
		return err
	}
	return optchain.RegisterStrategy(tracedStrategy, func(ctx optchain.StrategyContext) (optchain.Placer, error) {
		if ctx.Alpha != 0 || ctx.Weight != 0 || ctx.ExactL2S {
			return nil, errors.New("the timed strategy supports only OptChain's default configuration")
		}
		inner, err := optchain.NewOptChainPlacer(ctx.K, stub, ctx.Telemetry)
		if err != nil {
			return nil, err
		}
		if err := setOutCounts(inner, ctx.OutCounts); err != nil {
			return nil, err
		}
		return timedPlacer{inner}, nil
	})
}

// setOutCounts installs the engine's output-count source on an OptChain
// placer, as the built-in OptChain factory does. The library exports no
// constructor that takes a StrategyContext, so the placer's exported
// Scores().SetOutCounts is reached through reflection.
func setOutCounts(p optchain.Placer, fn func(optchain.Node) int) error {
	scores := reflect.ValueOf(p).MethodByName("Scores")
	if !scores.IsValid() {
		return fmt.Errorf("placer %T has no Scores method", p)
	}
	set := scores.Call(nil)[0].MethodByName("SetOutCounts")
	if !set.IsValid() {
		return errors.New("OptChain score index has no SetOutCounts method")
	}
	set.Call([]reflect.Value{reflect.ValueOf(fn)})
	return nil
}
