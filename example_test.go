package ariesrh_test

import (
	"fmt"

	"ariesrh"
	"ariesrh/etm"
)

// The worker/coordinator pattern: delegation decouples an update's fate
// from the transaction that made it.
func Example() {
	db, _ := ariesrh.Open()
	defer db.Close()

	worker, _ := db.Begin()
	coordinator, _ := db.Begin()
	_ = worker.Update(1, []byte("tentative result"))
	_ = worker.Delegate(coordinator, 1) // rewrite history: now it's the coordinator's
	_ = worker.Abort()                  // the delegated update survives
	_ = coordinator.Commit()            // ...and becomes permanent

	v, _, _ := db.ReadCommitted(1)
	fmt.Printf("%s\n", v)
	// Output: tentative result
}

// Delegation seen through the paper's ResponsibleTr lens: the log record
// still carries the invoker's ID, but responsibility has moved.
func ExampleDB_ResponsibleFor() {
	db, _ := ariesrh.Open()
	defer db.Close()

	t1, _ := db.Begin()
	t2, _ := db.Begin()
	_ = t1.Update(7, []byte("x")) // logged at LSN 1 as update[t1, 7]: Begin logs nothing
	owner, _ := db.ResponsibleFor(1)
	fmt.Println(owner == t1.ID())
	_ = t1.Delegate(t2, 7)
	owner, _ = db.ResponsibleFor(1)
	fmt.Println(owner == t2.ID())
	// Output:
	// true
	// true
}

// Split transactions (§2.2.1): carve finished work out of an open-ended
// session and commit it independently.
func ExampleSplit() {
	db, _ := ariesrh.Open()
	defer db.Close()

	session, _ := db.Begin()
	_ = session.Update(1, []byte("done"))
	_ = session.Update(2, []byte("draft"))

	finished, _ := etm.Split(session, 1)
	_ = finished.Commit() // object 1 is now permanent
	_ = session.Abort()   // object 2 dies with the session

	v1, _, _ := db.ReadCommitted(1)
	_, ok2, _ := db.ReadCommitted(2)
	fmt.Printf("%s %v\n", v1, ok2)
	// Output: done false
}

// Commutative counters: concurrent increments never block each other, and
// an abort removes exactly its own deltas.
func ExampleTx_Increment() {
	db, _ := ariesrh.Open()
	defer db.Close()

	t1, _ := db.Begin()
	t2, _ := db.Begin()
	_, _ = t1.Increment(1, 10)
	_, _ = t2.Increment(1, 100) // compatible increment locks: no waiting
	_ = t1.Abort()              // logical undo: only -10
	_ = t2.Commit()

	v, _ := db.CounterValue(1)
	fmt.Println(v)
	// Output: 100
}

// Savepoints roll back only what the transaction is still responsible
// for: delegated-away work stands.
func ExampleTx_RollbackTo() {
	db, _ := ariesrh.Open()
	defer db.Close()

	tx, _ := db.Begin()
	keeper, _ := db.Begin()
	sp, _ := tx.Savepoint()
	_ = tx.Update(1, []byte("delegated"))
	_ = tx.Delegate(keeper, 1) // no longer tx's responsibility
	_ = tx.Update(2, []byte("scratch"))
	_ = tx.RollbackTo(sp) // undoes object 2 only
	_ = tx.Commit()
	_ = keeper.Commit()

	v1, _, _ := db.ReadCommitted(1)
	_, ok2, _ := db.ReadCommitted(2)
	fmt.Printf("%s %v\n", v1, ok2)
	// Output: delegated false
}
