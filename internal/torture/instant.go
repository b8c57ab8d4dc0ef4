package torture

import (
	"fmt"
	"sync"
)

// RunReadsDuringRecovery executes the crash-point sweep with the engine's
// parallel recovery pipeline (core.Options.ParallelRecovery) and, at
// every boundary, issues reads of every object and counter WHILE the
// pipeline is still running — Recover returns with recovery in flight,
// so the reads race the redo drain and the backward undo sweep.  Each
// read triggers on-demand redo of its object's chain and waits for the
// undo of the loser clusters covering it, so it must already return the
// fully recovered value; the reads are judged by the same durable-log
// oracle as the sequential sweep, and the post-WaitRecovered state is
// checked against it a second time.  The undo-visit stream must stay one
// strictly decreasing, duplicate-free sweep — the pipeline changes when
// redo happens, never the undo order.  Boundaries are those of Run: a
// pure function of the trace, independent of how recovery is performed.
func RunReadsDuringRecovery(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	t, _, err := cfg.replaySweep("reads-during-recovery", true, func(rt *replayTarget) (target, error) {
		return instantTarget{rt}, nil
	}).run()
	return t.result(), err
}

// instantTarget is a replayTarget that comes back through the pipeline
// with readers on its heels.
type instantTarget struct{ *replayTarget }

func (t instantTarget) comeBack(b *boundary) error {
	if err := t.eng.Crash(); err != nil {
		return err
	}
	// Recover returns with the pipeline still running...
	if err := t.eng.Recover(); err != nil {
		return err
	}
	// ...and the mid-recovery readers race it: two goroutines split the
	// object space and check every value against the oracle while redo
	// and undo are (possibly) still in flight.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for part := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for obj := 1 + part; obj <= b.s.objects+b.s.counters && errs[part] == nil; obj += len(errs) {
				errs[part] = b.checkObject("mid-recovery", obj)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := t.eng.WaitRecovered(); err != nil {
		return fmt.Errorf("wait recovered: %w", err)
	}
	return nil
}
