package lock

import (
	"testing"

	"ariesrh/internal/wal"
)

func BenchmarkAcquireReleaseUncontended(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := wal.TxID(i%100 + 1)
		if err := m.Acquire(tx, wal.ObjectID(i%512), Exclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(tx)
	}
}

func BenchmarkSharedParallel(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tx := wal.TxID(1)
		for pb.Next() {
			tx++
			if tx == 0 {
				tx = 1
			}
			if err := m.Acquire(tx, 7, Shared); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(tx)
		}
	})
}

func BenchmarkIncrementModeParallel(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tx := wal.TxID(1)
		for pb.Next() {
			tx += 2
			if tx == 0 {
				tx = 1
			}
			if err := m.Acquire(tx, 7, Increment); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(tx)
		}
	})
}
