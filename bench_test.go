// Package ariesrh benchmarks: one testing.B benchmark per experiment in
// EXPERIMENTS.md (E1..E6), exercising the primitive costs the paper's
// efficiency argument (§4.2) is built on.  cmd/rhbench produces the full
// tables; these benchmarks are the `go test -bench` entry points.
package ariesrh_test

import (
	"fmt"
	"testing"

	"ariesrh"
	"ariesrh/etm"
	"ariesrh/internal/aries"
	"ariesrh/internal/core"
	"ariesrh/internal/eos"
	"ariesrh/internal/rewrite"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// --- E1: no delegation, no overhead -----------------------------------

// benchNormalProcessing measures update throughput on a delegation-free
// workload for any engine exposing the three primitives.
func benchNormalProcessing(b *testing.B,
	begin func() (wal.TxID, error),
	update func(wal.TxID, wal.ObjectID, []byte) error,
	commit func(wal.TxID) error,
) {
	b.Helper()
	val := []byte("bench-value-0123456789abcdef")
	const perTxn = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := begin()
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < perTxn; j++ {
			// Bounded object space: steady-state cost, not DB growth.
			if err := update(tx, wal.ObjectID((i*perTxn+j)%50000+1), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1NormalProcessing(b *testing.B) {
	b.Run("aries", func(b *testing.B) {
		e, err := aries.New(aries.Options{PoolSize: 1024})
		if err != nil {
			b.Fatal(err)
		}
		benchNormalProcessing(b, e.Begin, e.Update, e.Commit)
	})
	b.Run("ariesrh", func(b *testing.B) {
		e, err := core.New(core.Options{PoolSize: 1024})
		if err != nil {
			b.Fatal(err)
		}
		benchNormalProcessing(b, e.Begin, e.Update, e.Commit)
	})
}

func BenchmarkE1Recovery(b *testing.B) {
	const txns, perTxn = 200, 8
	b.Run("aries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := aries.New(aries.Options{PoolSize: 1024})
			if err != nil {
				b.Fatal(err)
			}
			seedDelegationFree(b, e.Begin, e.Update, e.Commit, txns, perTxn)
			if err := e.Log().Flush(1 << 62); err != nil {
				b.Fatal(err)
			}
			if err := e.Crash(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := e.Recover(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ariesrh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := core.New(core.Options{PoolSize: 1024})
			if err != nil {
				b.Fatal(err)
			}
			seedDelegationFree(b, e.Begin, e.Update, e.Commit, txns, perTxn)
			if err := e.Log().Flush(1 << 62); err != nil {
				b.Fatal(err)
			}
			if err := e.Crash(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := e.Recover(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func seedDelegationFree(b *testing.B,
	begin func() (wal.TxID, error),
	update func(wal.TxID, wal.ObjectID, []byte) error,
	commit func(wal.TxID) error,
	txns, perTxn int,
) {
	b.Helper()
	val := []byte("bench-value")
	for i := 0; i < txns; i++ {
		tx, err := begin()
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < perTxn; j++ {
			// Bounded object space: steady-state cost, not DB growth.
			if err := update(tx, wal.ObjectID((i*perTxn+j)%50000+1), val); err != nil {
				b.Fatal(err)
			}
		}
		// Leave every 10th transaction uncommitted: undo work exists.
		if i%10 != 0 {
			if err := commit(tx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E2: delegation cost linear in objects delegated ------------------

func BenchmarkE2Delegate(b *testing.B) {
	for _, objs := range []int{1, 16, 256, 1024} {
		b.Run(fmt.Sprintf("objs-%d", objs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := core.New(core.Options{PoolSize: 1024})
				if err != nil {
					b.Fatal(err)
				}
				tor, _ := e.Begin()
				tee, _ := e.Begin()
				for k := 0; k < objs; k++ {
					if err := e.Update(tor, wal.ObjectID(k+1), []byte("v")); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := e.DelegateAll(tor, tee); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(objs), "ns/object")
		})
	}
}

// --- E3: recovery cost vs delegation rate ------------------------------

func BenchmarkE3Recovery(b *testing.B) {
	for _, rate := range []float64{0, 0.2, 0.4} {
		cfg := sim.Config{
			Seed: 42, Steps: 2000, Objects: 256, MaxActive: 8,
			DelegationRate: rate, TerminateRate: 0.10, AbortFraction: 0.3,
		}
		trace := sim.Generate(cfg)
		for _, engine := range []string{"ariesrh", "eager", "lazy"} {
			b.Run(fmt.Sprintf("rate-%.2f/%s", rate, engine), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var target sim.Target
					switch engine {
					case "ariesrh":
						e, err := core.New(core.Options{PoolSize: 1024})
						if err != nil {
							b.Fatal(err)
						}
						target = sim.CoreTarget{Engine: e}
					case "eager":
						e, err := rewrite.New(rewrite.Options{Mode: rewrite.Eager, PoolSize: 1024})
						if err != nil {
							b.Fatal(err)
						}
						target = sim.RewriteTarget{Engine: e}
					case "lazy":
						e, err := rewrite.New(rewrite.Options{Mode: rewrite.Lazy, PoolSize: 1024})
						if err != nil {
							b.Fatal(err)
						}
						target = sim.RewriteTarget{Engine: e}
					}
					rep := sim.NewReplayer(target, trace)
					if err := rep.RunTo(-1); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := rep.CrashRecover(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4: cost of one delegation vs log length --------------------------

func BenchmarkE4DelegationVsLogLength(b *testing.B) {
	for _, pad := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("log-%d/eager", pad), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := rewrite.New(rewrite.Options{Mode: rewrite.Eager, PoolSize: 1024})
				if err != nil {
					b.Fatal(err)
				}
				tor, _ := e.Begin()
				if err := e.Update(tor, 1, []byte("v")); err != nil {
					b.Fatal(err)
				}
				filler, _ := e.Begin()
				for k := 0; k < pad; k++ {
					if err := e.Update(filler, wal.ObjectID(100+k), []byte("pad")); err != nil {
						b.Fatal(err)
					}
				}
				tee, _ := e.Begin()
				b.StartTimer()
				if err := e.Delegate(tor, tee, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("log-%d/ariesrh", pad), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := core.New(core.Options{PoolSize: 1024})
				if err != nil {
					b.Fatal(err)
				}
				tor, _ := e.Begin()
				if err := e.Update(tor, 1, []byte("v")); err != nil {
					b.Fatal(err)
				}
				filler, _ := e.Begin()
				for k := 0; k < pad; k++ {
					if err := e.Update(filler, wal.ObjectID(100+k), []byte("pad")); err != nil {
						b.Fatal(err)
					}
				}
				tee, _ := e.Begin()
				b.StartTimer()
				if err := e.Delegate(tor, tee, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: EOS ------------------------------------------------------------

func BenchmarkE5EOSCommitWithDelegation(b *testing.B) {
	e, err := eos.New(eos.Options{PoolSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	val := []byte("bench-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := e.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if err := e.Update(tx, wal.ObjectID((i*8+j)%50000+1), val); err != nil {
				b.Fatal(err)
			}
		}
		sink, err := e.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Delegate(tx, sink, wal.ObjectID((i*8)%50000+1)); err != nil {
			b.Fatal(err)
		}
		if err := e.Commit(sink); err != nil {
			b.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5EOSRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := eos.New(eos.Options{PoolSize: 1024})
		if err != nil {
			b.Fatal(err)
		}
		val := []byte("bench-value")
		for t := 0; t < 200; t++ {
			tx, err := e.Begin()
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				if err := e.Update(tx, wal.ObjectID(t*8+j+1), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Commit(tx); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Crash(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: extended transaction models ------------------------------------

func BenchmarkE6Nested(b *testing.B) {
	db, err := ariesrh.Open(ariesrh.Options{PoolSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip, err := etm.BeginNested(db)
		if err != nil {
			b.Fatal(err)
		}
		a := ariesrh.ObjectID((i*2)%50000 + 1)
		c := ariesrh.ObjectID((i*2)%50000 + 2)
		if err := trip.Sub(func(res *etm.NestedTx) error {
			return res.Update(a, []byte("flight"))
		}); err != nil {
			b.Fatal(err)
		}
		if err := trip.Sub(func(res *etm.NestedTx) error {
			return res.Update(c, []byte("hotel"))
		}); err != nil {
			b.Fatal(err)
		}
		if err := trip.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Split(b *testing.B) {
	db, err := ariesrh.Open(ariesrh.Options{PoolSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		a := ariesrh.ObjectID((i*2)%50000 + 1)
		c := ariesrh.ObjectID((i*2)%50000 + 2)
		if err := sess.Update(a, []byte("done")); err != nil {
			b.Fatal(err)
		}
		if err := sess.Update(c, []byte("draft")); err != nil {
			b.Fatal(err)
		}
		early, err := etm.Split(sess, a)
		if err != nil {
			b.Fatal(err)
		}
		if err := early.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := sess.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6FlatBaseline(b *testing.B) {
	db, err := ariesrh.Open(ariesrh.Options{PoolSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Update(ariesrh.ObjectID((i*2)%50000+1), []byte("flight")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Update(ariesrh.ObjectID((i*2)%50000+2), []byte("hotel")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
