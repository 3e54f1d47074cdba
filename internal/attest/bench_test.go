package attest

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// These measure the Ed25519 identity-signature cost (admission, witness
// receipts without a keyed link, cross-process swarms) and the session MAC
// cost (per-piece receipts on the cluster hot path, and as the link scheme
// its witness receipts). The gap between them is why the schemes exist.

func benchPair(b *testing.B) (*Verifier, *Key) {
	b.Helper()
	dir := NewDirectory()
	recv := NewKeyFromSeed(2, 42)
	dir.Register(1, NewKeyFromSeed(1, 42).Identity())
	dir.Register(2, recv.Identity())
	dir.Register(3, NewKeyFromSeed(3, 42).Identity())
	return NewVerifier(dir), recv
}

func BenchmarkAttestSignEd25519(b *testing.B) {
	_, recv := benchPair(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recv.Attest(SchemeEd25519, 1, int32(i), [32]byte{}, 4096)
	}
}

func BenchmarkAttestVerifyEd25519(b *testing.B) {
	v, recv := benchPair(b)
	att := recv.Attest(SchemeEd25519, 1, 0, [32]byte{}, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Check(att); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttestSignSession(b *testing.B) {
	_, recv := benchPair(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recv.Attest(SchemeSession, 1, int32(i), [32]byte{}, 4096)
	}
}

func BenchmarkAttestVerifySession(b *testing.B) {
	v, recv := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		att := recv.Attest(SchemeSession, 1, int32(i), [32]byte{}, 4096)
		if err := v.Verify(att); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttestSignLink(b *testing.B) {
	_, wit := benchPair(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wit.AttestLink(3, 1, int32(i), [32]byte{}, 4096)
	}
}

func BenchmarkAttestVerifyLink(b *testing.B) {
	v, wit := benchPair(b)
	att := wit.AttestLink(3, 1, 0, [32]byte{}, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.CheckLink(att, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyParallel is the contended credit shape: RunParallel's
// GOMAXPROCS goroutines verifying session receipts of 16 (receiver, sender)
// pairs (more if there are more goroutines) through one shared Verifier and
// Directory, as a cluster's nodes do through its shared ledger. Goroutine g
// owns the pairs whose index is g modulo the goroutine count, so each pair's
// sequence numbers arrive in order, and it signs each receipt just before
// verifying it: ns/op is one sign plus one verify under contention.
func BenchmarkVerifyParallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	dir := NewDirectory()
	dir.Register(1, NewKeyFromSeed(1, 42).Identity())
	keys := make([]*Key, max(16, procs))
	for i := range keys {
		keys[i] = NewKeyFromSeed(int32(i+2), 42)
		dir.Register(int32(i+2), keys[i].Identity())
	}
	v := NewVerifier(dir)
	var next atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var own []*Key
		for j := int(next.Add(1) - 1); j < len(keys); j += procs {
			own = append(own, keys[j])
		}
		for i := 0; pb.Next(); i++ {
			k := own[i%len(own)]
			if err := v.Verify(k.Attest(SchemeSession, 1, int32(i), [32]byte{}, 4096)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
