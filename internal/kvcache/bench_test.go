package kvcache

import (
	"testing"
)

func BenchmarkAcquireReleaseColdHot(b *testing.B) {
	c := New(Config{BlockSize: 16, CapacityBlocks: 4096})
	prompt := seq(0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, ok := c.Acquire(prompt, 32)
		if !ok {
			b.Fatal("rejected")
		}
		c.Release(l)
	}
}

func BenchmarkAcquireDistinctWithEviction(b *testing.B) {
	c := New(Config{BlockSize: 16, CapacityBlocks: 512})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, ok := c.Acquire(seq(i*10_000, 256), 16)
		if !ok {
			b.Fatal("rejected")
		}
		c.Release(l)
	}
}

func BenchmarkMatchLen(b *testing.B) {
	c := New(Config{BlockSize: 16})
	p := seq(0, 2048)
	l, _ := c.Acquire(p, 0)
	defer c.Release(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.MatchLen(p) != 2048 {
			b.Fatal("match lost")
		}
	}
}

func BenchmarkBlockHashes(b *testing.B) {
	p := seq(0, 4096)
	b.SetBytes(int64(len(p) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlockHashes(p, 16)
	}
}
