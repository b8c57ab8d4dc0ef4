// Command quickstart demonstrates the core of the library in a minute:
// transactions, delegation ("rewriting history"), crash and recovery.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ariesrh"
)

func main() {
	db, err := ariesrh.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const account = ariesrh.ObjectID(1)

	// A worker transaction computes a tentative result...
	worker, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	if err := worker.Update(account, []byte("balance=100")); err != nil {
		log.Fatal(err)
	}

	// ...and hands responsibility for it to a coordinator.  From the
	// system's point of view, history has been rewritten: the update now
	// looks as if the coordinator had performed it all along.
	coordinator, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	if err := worker.Delegate(coordinator, account); err != nil {
		log.Fatal(err)
	}

	// The worker can now fail without taking the result with it.
	if err := worker.Abort(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("worker aborted — delegated update still alive")

	// The fate of the update is the coordinator's to decide.
	if err := coordinator.Commit(); err != nil {
		log.Fatal(err)
	}
	v, _, err := db.ReadCommitted(account)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after coordinator commit: account = %q\n", v)

	// Crash and recover: the committed delegated update is durable.
	if err := db.Crash(); err != nil {
		log.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		log.Fatal(err)
	}
	v, _, err = db.ReadCommitted(account)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash + recovery:   account = %q\n", v)

	m := db.Metrics()
	fmt.Printf("stats: %d updates, %d delegations, %d CLRs, recovery visited %d records backward\n",
		m.Counter("core.updates"), m.Counter("core.delegations"), m.Counter("core.clrs"),
		db.LastRecoveryTrace().BackwardVisited)
}
