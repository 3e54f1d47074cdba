package attest

import "testing"

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
