package privacy

// Microbenchmarks for the hot paths the worker pool (internal/parallel)
// fans out: per-scheme Encrypt, Add, and Remove. Remove is reported at
// workers=1 (serial) and workers=0 (all CPUs) so the pool's effect is
// visible directly in `make bench-hot` output; only the hybrid group takes a
// worker bound, and the other schemes run their fixed fan-out in both arms. The private read path —
// envelope codec, then Decrypt with the key cache warm or absent — is
// measured on the harness's shape (hotGroups).

import (
	"fmt"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/social/identity"
)

const (
	benchMembers = 16
	benchArchive = 16
)

var benchPlaintext = []byte("the quick brown fox jumps over the lazy dog, repeatedly")

type benchEnv struct {
	registry *identity.Registry
	names    []string
}

func newBenchEnv(b *testing.B) *benchEnv {
	b.Helper()
	env := &benchEnv{registry: identity.NewRegistry()}
	for i := 0; i < benchMembers+1; i++ {
		name := fmt.Sprintf("user-%04d", i)
		u, err := identity.NewUser(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.registry.Register(u); err != nil {
			b.Fatal(err)
		}
		env.names = append(env.names, name)
	}
	return env
}

// buildGroup constructs one scheme's group with benchMembers members; workers
// bounds the hybrid group's re-encryption.
func (env *benchEnv) buildGroup(b *testing.B, scheme string, workers int) Group {
	b.Helper()
	var g Group
	switch scheme {
	case "substitution":
		sg, err := NewSubstitutionGroup("bench", NewDictionary(), [][]byte{[]byte("John Doe"), []byte("Jane Roe")})
		if err != nil {
			b.Fatal(err)
		}
		g = sg
	case "symmetric":
		sg, err := NewSymmetricGroup("bench")
		if err != nil {
			b.Fatal(err)
		}
		g = sg
	case "public-key":
		g = NewPublicKeyGroup("bench", env.registry)
	case "abe":
		auth, err := abe.NewAuthority()
		if err != nil {
			b.Fatal(err)
		}
		ag, err := NewABEGroup("bench", auth, "(member)")
		if err != nil {
			b.Fatal(err)
		}
		g = ag
	case "ibbe":
		pkg, err := ibe.NewPKG()
		if err != nil {
			b.Fatal(err)
		}
		g = NewIBBEGroup("bench", pkg)
	case "hybrid":
		owner, err := pubkey.NewSigningKeyPair()
		if err != nil {
			b.Fatal(err)
		}
		hg, err := NewHybridGroup("bench", env.registry, owner)
		if err != nil {
			b.Fatal(err)
		}
		hg.SetWorkers(workers)
		g = hg
	default:
		b.Fatalf("unknown scheme %s", scheme)
	}
	for i := 0; i < benchMembers; i++ {
		if err := g.Add(env.names[i]); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

var benchSchemes = []string{"substitution", "symmetric", "public-key", "abe", "ibbe", "hybrid"}

func BenchmarkGroupEncrypt(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme, func(b *testing.B) {
			env := newBenchEnv(b)
			g := env.buildGroup(b, scheme, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Encrypt(benchPlaintext); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGroupAdd(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme, func(b *testing.B) {
			env := newBenchEnv(b)
			g := env.buildGroup(b, scheme, 0)
			spare := env.names[benchMembers]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Add(spare); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := g.Remove(spare); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

func BenchmarkGroupRemove(b *testing.B) {
	for _, workers := range []int{1, 0} {
		label := "serial"
		if workers == 0 {
			label = "pool"
		}
		for _, scheme := range benchSchemes {
			b.Run(scheme+"/"+label, func(b *testing.B) {
				env := newBenchEnv(b)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := env.buildGroup(b, scheme, workers)
					for p := 0; p < benchArchive; p++ {
						if _, err := g.Encrypt(benchPlaintext); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if _, err := g.Remove(env.names[0]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEnvelopeCodec(b *testing.B) {
	envs := hotEnvelopes(b)
	for _, scheme := range []Scheme{SchemeHybrid, SchemeABE, SchemeIBBE} {
		env := envs[scheme]
		wire, err := Marshal(env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("marshal/"+string(scheme), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if _, err := Marshal(env); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("unmarshal/"+string(scheme), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupDecrypt opens one post as one member: warm with the
// envelope-key cache installed (the symmetric phase only), cold without a
// cache (the public-key phase every time).
func BenchmarkGroupDecrypt(b *testing.B) {
	f, groups := hotGroups(b)
	reader := f.users[hotMembers[3]]
	for _, g := range groups {
		env, err := g.Encrypt(hotPost)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			cfg  cache.Config
		}{
			{"warm", cache.Config{Capacity: 64, Seed: 11}},
			{"cold", cache.Config{}},
		} {
			b.Run(string(g.Scheme())+"/"+arm.name, func(b *testing.B) {
				g.SetKeyCache(arm.cfg)
				if _, err := g.Decrypt(reader, env); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.Decrypt(reader, env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
