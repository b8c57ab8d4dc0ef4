// Command rhdemo walks through the paper's running example (§3.1
// Example 1 / Figure 2): a log with updates by t1 and t2 followed by
// delegate(t1, t2, a).
//
// It shows the two implementations side by side:
//
//   - the EAGER baseline physically rewrites history — the "after
//     rewriting" row of Figure 2 appears in its log;
//   - ARIES/RH leaves the log untouched and rewrites history by
//     interpretation: ResponsibleTr(record) answers as if the records had
//     been written by the delegatee.
//
// Run with: go run ./cmd/rhdemo
package main

import (
	"fmt"
	"log"
	"strings"

	"ariesrh/internal/core"
	"ariesrh/internal/rewrite"
	"ariesrh/internal/wal"
)

const (
	objA = wal.ObjectID(100)
	objB = wal.ObjectID(101)
	objX = wal.ObjectID(102)
	objY = wal.ObjectID(103)
)

func objName(o wal.ObjectID) string {
	switch o {
	case objA:
		return "a"
	case objB:
		return "b"
	case objX:
		return "x"
	case objY:
		return "y"
	default:
		return fmt.Sprint(o)
	}
}

// driver abstracts the two engines for the common script.
type driver interface {
	Begin() (wal.TxID, error)
	Update(tx wal.TxID, obj wal.ObjectID, val []byte) error
	Delegate(tor, tee wal.TxID, obj wal.ObjectID) error
}

// script replays Figure 2's history and returns (t1, t2).
func script(d driver) (wal.TxID, wal.TxID) {
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	t1, err := d.Begin()
	must(err)
	t2, err := d.Begin()
	must(err)
	must(d.Update(t1, objA, []byte("1"))) // update[t1, a]
	must(d.Update(t2, objX, []byte("2"))) // update[t2, x]
	must(d.Update(t1, objB, []byte("3"))) // update[t1, b]
	must(d.Update(t1, objA, []byte("4"))) // update[t1, a]
	must(d.Update(t2, objY, []byte("5"))) // update[t2, y]
	must(d.Delegate(t1, t2, objA))        // delegate(t1 -> t2, a)
	return t1, t2
}

// dumpLog prints either engine's log: the production wal.Log or the eager
// baseline's own rewritable one.
func dumpLog(l interface {
	Head() wal.LSN
	Get(wal.LSN) (*wal.Record, error)
}) {
	head := l.Head()
	for lsn := wal.LSN(1); lsn <= head; lsn++ {
		rec, err := l.Get(lsn)
		if err != nil {
			log.Fatal(err)
		}
		switch rec.Type {
		case wal.TypeUpdate:
			fmt.Printf("  %3d  update[t%d, %s]\n", rec.LSN, rec.TxID, objName(rec.Object))
		case wal.TypeDelegate, wal.TypeDelegateSet:
			var names []string
			for _, obj := range rec.Delegated() {
				names = append(names, objName(obj))
			}
			fmt.Printf("  %3d  %s(t%d -> t%d, %s)  torBC=%d teeBC=%d\n",
				rec.LSN, rec.Type, rec.Tor, rec.Tee, strings.Join(names, " "), rec.TorPrev, rec.TeePrev)
		default:
			fmt.Printf("  %3d  %s(t%d)\n", rec.LSN, rec.Type, rec.TxID)
		}
	}
}

func main() {
	fmt.Println("=== Figure 2, eager baseline: the log IS rewritten ===")
	eag, err := rewrite.New(rewrite.Options{Mode: rewrite.Eager})
	if err != nil {
		log.Fatal(err)
	}
	script(eag)
	dumpLog(eag.Log())
	s := eag.Stats()
	fmt.Printf("cost: %d records swept, %d records rewritten in place\n\n",
		s.DelegateSweepReads, s.Rewrites)

	fmt.Println("=== Figure 2, ARIES/RH: the log is NOT rewritten ===")
	rh, err := core.New(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	t1, t2 := script(rh)
	dumpLog(rh.Log())
	fmt.Println("...but interpreting it through ResponsibleTr (the scopes):")
	head := rh.Log().Head()
	for lsn := wal.LSN(1); lsn <= head; lsn++ {
		rec, err := rh.Log().Get(lsn)
		if err != nil {
			log.Fatal(err)
		}
		if rec.Type != wal.TypeUpdate {
			continue
		}
		owner, err := rh.ResponsibleFor(lsn)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if owner != rec.TxID {
			marker = fmt.Sprintf("   <-- rewritten by interpretation (was t%d)", rec.TxID)
		}
		fmt.Printf("  %3d  update[t%d, %s]  ResponsibleTr = t%d%s\n",
			rec.LSN, rec.TxID, objName(rec.Object), owner, marker)
	}
	fmt.Println("cost: the delegation appended 1 record; no record was touched")

	fmt.Println("\n=== Figure 5: the object lists after the delegation ===")
	for _, tx := range []wal.TxID{t1, t2} {
		objs, err := rh.ObjectsOf(tx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Ob_List(t%d):", tx)
		if len(objs) == 0 {
			fmt.Print(" (empty)")
		}
		for _, obj := range objs {
			ops, _ := rh.OpList(tx)
			fmt.Printf(" %s(ops@%v)", objName(obj), ops)
			break
		}
		fmt.Println()
	}
	ops1, _ := rh.OpList(t1)
	ops2, _ := rh.OpList(t2)
	fmt.Printf("  Op_List(t%d) = %v   (its update of b)\n", t1, ops1)
	fmt.Printf("  Op_List(t%d) = %v (x, y, and the two delegated updates of a)\n", t2, ops2)

	example2()
}

// example2 walks §3.4 Example 2: t updates ob, delegates to t1, updates ob
// again, delegates to t2; t2 aborts, t1 commits — the first update
// persists, the second is undone, regardless of t's fate.
func example2() {
	fmt.Println("\n=== Example 2 (§3.4): two delegations, opposite fates ===")
	rh, err := core.New(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	tt, _ := rh.Begin()
	t1, _ := rh.Begin()
	t2, _ := rh.Begin()
	const ob = wal.ObjectID(9)
	must(rh.Update(tt, ob, []byte("first")))
	must(rh.Delegate(tt, t1, ob))
	must(rh.Update(tt, ob, []byte("second")))
	must(rh.Delegate(tt, t2, ob))
	show := func(when string) {
		v, _, _ := rh.ReadObject(ob)
		fmt.Printf("  %-28s ob = %q\n", when, v)
	}
	show("after both delegations:")
	must(rh.Abort(t2)) // the second update must be undone...
	show("after abort(t2):")
	must(rh.Commit(t1)) // ...and the first must persist.
	show("after commit(t1):")
	must(rh.Commit(tt))
	fmt.Println("  t's own fate was irrelevant: the delegatees decided.")
}
