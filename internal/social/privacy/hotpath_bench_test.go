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
	"godosn/internal/social/identity"
)

const (
	benchMembers = 16
	benchArchive = 16
)

var benchPlaintext = []byte("the quick brown fox jumps over the lazy dog, repeatedly")

type benchEnv struct {
	registry *identity.Registry
	owner    *identity.User
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
		if i == 0 {
			env.owner = u
		}
		env.names = append(env.names, name)
	}
	return env
}

// buildGroup constructs one scheme's group of the environment's first
// members users (at most benchMembers); workers bounds the hybrid group's
// re-encryption.
func (env *benchEnv) buildGroup(b *testing.B, scheme Scheme, workers, members int) Group {
	b.Helper()
	g, err := NewGroup(scheme, "bench", env.registry, env.owner)
	if err != nil {
		b.Fatal(err)
	}
	if hg, ok := g.(*HybridGroup); ok {
		hg.SetWorkers(workers)
	}
	for i := 0; i < members; i++ {
		if err := g.Add(env.names[i]); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// BenchmarkGroupEncrypt posts at 8 members, the benchmark harness's group
// size and the one TestContextEncryptAllocations pins, and at 16, past the
// 8 wraps an IBBE broadcast holds in its own allocation.
func BenchmarkGroupEncrypt(b *testing.B) {
	for _, members := range []int{8, benchMembers} {
		for _, scheme := range Schemes() {
			b.Run(fmt.Sprintf("%s/members=%d", scheme, members), func(b *testing.B) {
				env := newBenchEnv(b)
				g := env.buildGroup(b, scheme, 0, members)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.Encrypt(benchPlaintext); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkGroupAdd(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			env := newBenchEnv(b)
			g := env.buildGroup(b, scheme, 0, benchMembers)
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
		for _, scheme := range Schemes() {
			b.Run(string(scheme)+"/"+label, func(b *testing.B) {
				env := newBenchEnv(b)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := env.buildGroup(b, scheme, workers, benchMembers)
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
