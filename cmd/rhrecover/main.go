// Command rhrecover runs a randomized delegation workload against the
// ARIES/RH engine, crashes it at a chosen point, recovers, verifies the
// result against the independent oracle, and prints what recovery did.
//
// Usage:
//
//	rhrecover [-seed N] [-steps N] [-deleg RATE] [-ckpt] [-crashes N] [-parallel]
//
// With -parallel the engine recovers through the instant-restart
// pipeline: Recover returns with redo and undo still in flight, the tool
// serves a read mid-recovery (on-demand redo of just that object's
// chain), shows a write being rejected with ErrRecovering, and only then
// waits for the pipeline to drain.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	steps := flag.Int("steps", 2000, "history length")
	deleg := flag.Float64("deleg", 0.15, "delegation rate")
	ckpt := flag.Bool("ckpt", true, "take a fuzzy checkpoint mid-run")
	crashes := flag.Int("crashes", 1, "number of crash/recover cycles (tests CLR idempotency)")
	failpoint := flag.Int("failpoint", 0, "inject a second crash after N CLRs of the first recovery's backward pass")
	metrics := flag.Bool("metrics", false, "print the engine metrics snapshot and the last recovery trace")
	parallel := flag.Bool("parallel", false, "recover through the instant-restart pipeline and serve a read mid-recovery")
	flag.Parse()

	cfg := sim.Config{
		Seed:           *seed,
		Steps:          *steps,
		Objects:        *steps / 8,
		MaxActive:      8,
		DelegationRate: *deleg,
		TerminateRate:  0.10,
		AbortFraction:  0.3,
	}
	trace := sim.Generate(cfg)
	fmt.Printf("history: %d actions (seed %d, delegation rate %.2f)\n", len(trace), *seed, *deleg)

	engine, err := core.New(core.Options{PoolSize: 256, ParallelRecovery: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	target := sim.CoreTarget{Engine: engine}
	rep := sim.NewReplayer(target, trace)
	oracle := sim.NewOracle()
	for _, a := range trace {
		if err := oracle.Apply(a); err != nil {
			log.Fatal(err)
		}
	}

	if *ckpt {
		if err := rep.RunTo(len(trace) / 2); err != nil {
			log.Fatal(err)
		}
		if err := engine.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fuzzy checkpoint at action %d\n", len(trace)/2)
	}
	if err := rep.RunTo(-1); err != nil {
		log.Fatal(err)
	}
	losers := rep.LiveSlots()
	fmt.Printf("crash with %d transactions in flight\n", len(losers))

	before := engine.Metrics()
	if *failpoint > 0 {
		if err := engine.Log().Flush(engine.Log().Head()); err != nil {
			log.Fatal(err)
		}
		if err := engine.Crash(); err != nil {
			log.Fatal(err)
		}
		engine.SetRecoveryFailpoint(*failpoint)
		err := recoverAndWait(engine)
		switch {
		case err == nil:
			fmt.Printf("failpoint %d never fired (fewer CLRs needed); recovery completed"+"\n", *failpoint)
		case errors.Is(err, core.ErrInjectedRecoveryFailure):
			fmt.Printf("injected crash after %d CLRs of the backward pass; recovering again"+"\n", *failpoint)
			if err := engine.Crash(); err != nil {
				log.Fatal(err)
			}
			if err := recoverAndWait(engine); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatal(err)
		}
	}
	for i := 0; i < *crashes; i++ {
		if !*parallel {
			if err := rep.CrashRecover(); err != nil {
				log.Fatal(err)
			}
			continue
		}
		// Pipelined recovery: demonstrate the recovering-but-readable
		// window on the first cycle.  The hold keeps the pipeline from
		// flipping the engine writable until we have shown both sides of
		// the contract; all recovery work still completes under it.
		if err := engine.Log().Flush(engine.Log().Head()); err != nil {
			log.Fatal(err)
		}
		if err := engine.Crash(); err != nil {
			log.Fatal(err)
		}
		var hold chan struct{}
		if i == 0 {
			hold = make(chan struct{})
			engine.SetRecoveryHold(hold)
		}
		start := time.Now()
		if err := engine.Recover(); err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			_, ok, err := engine.ReadObject(1)
			if err != nil {
				log.Fatal(err)
			}
			ttfr := time.Since(start)
			fmt.Printf("pipeline recovery in flight (engine state: %s)\n", engine.Health().State)
			fmt.Printf("  read of object 1 served after %v (present=%v; on-demand redo of its chain only)\n",
				ttfr.Round(time.Microsecond), ok)
			if _, err := engine.Begin(); errors.Is(err, core.ErrRecovering) {
				fmt.Printf("  write rejected mid-recovery: %v\n", err)
			} else {
				log.Fatalf("expected ErrRecovering for a mid-recovery Begin, got %v", err)
			}
			close(hold)
		}
		if err := engine.WaitRecovered(); err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("  pipeline drained after %v; engine %s, writes accepted\n",
				time.Since(start).Round(time.Microsecond), engine.Health().State)
		}
	}
	d := engine.Metrics().Sub(before)
	fmt.Printf("recovery: %d winners, %d losers\n", d.Counter("recovery.winners"), d.Counter("recovery.losers"))
	fmt.Printf("  forward pass : %d records scanned, %d changes redone\n",
		d.Counter("recovery.forward_records"), d.Counter("recovery.redone"))
	fmt.Printf("  backward pass: %d positions visited, %d skipped between clusters, %d CLRs written\n",
		d.Counter("undo.visited"), d.Counter("undo.skipped"), d.Counter("recovery.clrs"))

	if *metrics {
		tr := engine.LastRecoveryTrace()
		mode := "sequential"
		if tr.Parallel {
			mode = fmt.Sprintf("pipeline over %d segments, %d on-demand reads", tr.Segments, tr.OnDemandReads)
		}
		fmt.Printf("last recovery trace (%s): %d winners, %d losers, %v total\n",
			mode, tr.Winners, tr.Losers, tr.TotalDur.Round(time.Microsecond))
		for _, st := range tr.Stages {
			fmt.Printf("  stage %-8s %10v  %d units\n", st.Name, st.Dur.Round(time.Microsecond), st.Units)
		}
		fmt.Printf("  forward: %d records scanned, %d redone; backward: %d visited, %d skipped, %d clusters, %d CLRs\n",
			tr.ForwardRecords, tr.Redone,
			tr.BackwardVisited, tr.BackwardSkipped, tr.Clusters, tr.CLRs)
		fmt.Println("metrics snapshot:")
		for _, line := range strings.Split(strings.TrimRight(engine.Metrics().Format(), "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}

	oracle.CrashRecover(losers)
	mismatches := 0
	for obj := wal.ObjectID(1); obj <= wal.ObjectID(cfg.Objects); obj++ {
		want, wantOK := oracle.Value(obj)
		got, gotOK, err := engine.ReadObject(obj)
		if err != nil {
			log.Fatal(err)
		}
		gotPresent := gotOK && len(got) > 0
		if wantOK != gotPresent || (wantOK && !bytes.Equal(want, got)) {
			mismatches++
			fmt.Printf("  MISMATCH object %d: engine=%q oracle=%q\n", obj, got, want)
		}
	}
	if mismatches == 0 {
		fmt.Printf("verified: all %d objects match the independent oracle — "+
			"loser updates undone, winner updates (incl. delegated ones) preserved\n", cfg.Objects)
	} else {
		log.Fatalf("%d mismatches", mismatches)
	}
}

// recoverAndWait runs Recover to completion.  With -parallel, Recover
// returns as soon as the pipeline is running, and an injected failure
// only surfaces when the pipeline finishes; WaitRecovered reports it.
func recoverAndWait(engine *core.Engine) error {
	if err := engine.Recover(); err != nil {
		return err
	}
	return engine.WaitRecovered()
}
