package privacy

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
)

// TestCodecRoundTripAllSchemes serializes and deserializes an envelope from
// every scheme and confirms the restored envelope still decrypts for a
// member and still refuses a non-member.
func TestCodecRoundTripAllSchemes(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice", "bob", "eve")
			g := sc.build(t, f)
			g.Add("alice")
			g.Add("bob")
			env, err := g.Encrypt([]byte("replicate me"))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			wire, err := Marshal(env)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			restored, err := Unmarshal(wire)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if restored.Scheme != env.Scheme || restored.Group != env.Group || restored.Epoch != env.Epoch {
				t.Fatalf("metadata drift: %+v", restored)
			}
			pt, err := g.Decrypt(f.users["alice"], restored)
			if err != nil {
				t.Fatalf("Decrypt restored: %v", err)
			}
			if string(pt) != "replicate me" {
				t.Fatalf("got %q", pt)
			}
			if _, err := g.Decrypt(f.users["eve"], restored); err == nil {
				t.Fatal("non-member decrypted restored envelope")
			}
		})
	}
}

// TestCodecSizeGrowth holds the marshalled length, the only envelope size, to
// the shapes E3 reports: IBBE grows with its recipients, CP-ABE with its
// policy, public-key with its members, and symmetric does not depend on its
// members.
func TestCodecSizeGrowth(t *testing.T) {
	f := newFixture(t, hotMembers...)
	wireSize := func(t *testing.T, g Group, members int) int {
		t.Helper()
		for _, m := range hotMembers[:members] {
			if err := g.Add(m); err != nil {
				t.Fatalf("Add(%s): %v", m, err)
			}
		}
		env, err := g.Encrypt([]byte("same message"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		wire, err := Marshal(env)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		return len(wire)
	}
	pkg, err := ibe.NewPKG()
	if err != nil {
		t.Fatalf("NewPKG: %v", err)
	}
	auth, err := abe.NewAuthority()
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	abeGroup := func(policy string) Group {
		g, err := NewABEGroup("g", auth, policy)
		if err != nil {
			t.Fatalf("NewABEGroup: %v", err)
		}
		return g
	}
	symGroup := func() Group {
		g, err := NewSymmetricGroup("g")
		if err != nil {
			t.Fatalf("NewSymmetricGroup: %v", err)
		}
		return g
	}
	for _, tc := range []struct {
		scheme               string
		small, large         Group
		smallOnes, largeOnes int
		grows                bool
	}{
		{"ibbe", NewIBBEGroup("g", pkg), NewIBBEGroup("g", pkg), 1, 8, true},
		{"abe", abeGroup("relative"), abeGroup("(relative AND doctor AND painter AND friend AND colleague)"), 1, 1, true},
		{"public-key", NewPublicKeyGroup("g", f.registry), NewPublicKeyGroup("g", f.registry), 1, 8, true},
		{"symmetric", symGroup(), symGroup(), 1, 8, false},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			small, large := wireSize(t, tc.small, tc.smallOnes), wireSize(t, tc.large, tc.largeOnes)
			if tc.grows && large <= small || !tc.grows && large != small {
				t.Fatalf("marshalled %d bytes small, %d large (grows: %v)", small, large, tc.grows)
			}
		})
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("nope" + string(make([]byte, 40))),
		[]byte(codecMagic), // magic only
		retiredTagWire(t),
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); !errors.Is(err, ErrCodec) {
			t.Errorf("case %d: err = %v, want ErrCodec", i, err)
		}
	}
}

// retiredTagWire is a well-formed CP-ABE envelope whose payload tag is set
// to 5, the retired KP-ABE tag.
func retiredTagWire(t testing.TB) []byte {
	t.Helper()
	g := buildABE(t)
	if err := g.Add("alice"); err != nil {
		t.Fatalf("Add: %v", err)
	}
	env, err := g.Encrypt([]byte("tagged"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	wire, err := Marshal(env)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	wire[headerSize+len(env.Scheme)+len(env.Group)-1] = 5
	return wire
}

func TestCodecRejectsTruncationAndTrailing(t *testing.T) {
	g, _ := NewSymmetricGroup("g")
	g.Add("a")
	env, _ := g.Encrypt([]byte("payload"))
	wire, err := Marshal(env)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for cut := 1; cut < len(wire); cut += 7 {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Unmarshal(append(append([]byte(nil), wire...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCodecTamperDetectedAtDecrypt(t *testing.T) {
	// The codec itself carries no MAC (the AEAD inside does): flipping
	// ciphertext bits must surface at decryption.
	f := newFixture(t, "alice")
	g, _ := NewSymmetricGroup("g")
	g.Add("alice")
	env, _ := g.Encrypt([]byte("payload"))
	wire, _ := Marshal(env)
	wire[len(wire)-1] ^= 1
	restored, err := Unmarshal(wire)
	if err != nil {
		return // structural rejection is fine too
	}
	if _, err := g.Decrypt(f.users["alice"], restored); err == nil {
		t.Fatal("tampered ciphertext decrypted")
	}
}

func TestQuickCodecNeverPanics(t *testing.T) {
	// Random byte strings must be rejected gracefully, never panic.
	fn := func(data []byte) bool {
		_, err := Unmarshal(data)
		return err != nil || true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// hotMembers and hotPost are the private read path's shape in the benchmark
// harness: 8-member groups, 200-byte posts.
var (
	hotMembers = []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	hotPost    = bytes.Repeat([]byte("p"), 200)
)

// hotGroups returns a full group of each scheme the private read path serves.
func hotGroups(t testing.TB) (*fixture, []keyCached) {
	t.Helper()
	f := newFixture(t, hotMembers...)
	groups := []keyCached{buildHybrid(t, f), buildABE(t), buildIBBE(t)}
	for _, g := range groups {
		for _, m := range hotMembers {
			if err := g.Add(m); err != nil {
				t.Fatalf("%s: Add(%s): %v", g.Scheme(), m, err)
			}
		}
	}
	return f, groups
}

// hotEnvelopes returns one post from each of hotGroups.
func hotEnvelopes(t testing.TB) map[Scheme]Envelope {
	t.Helper()
	_, groups := hotGroups(t)
	out := make(map[Scheme]Envelope)
	for _, g := range groups {
		env, err := g.Encrypt(hotPost)
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", g.Scheme(), err)
		}
		out[g.Scheme()] = env
	}
	return out
}

// TestCodecAllocationBudget pins the codec at a constant number of
// allocations per envelope: the output buffer one way; the other, one block
// holding the payload, its list and its names — a hybrid body's slice
// header, an ABE ciphertext or an IBBE broadcast. At the edges of the block
// each thing that does not fit costs one allocation more, and the envelope
// still decodes to the same fields and re-marshals to the same bytes.
func TestCodecAllocationBudget(t *testing.T) {
	envs := hotEnvelopes(t)
	for _, tc := range []struct {
		scheme             Scheme
		marshal, unmarshal float64
	}{
		{SchemeHybrid, 1, 1},
		{SchemeABE, 1, 1},
		{SchemeIBBE, 1, 1},
	} {
		env := envs[tc.scheme]
		wire, err := Marshal(env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.scheme, err)
		}
		if len(wire) != cap(wire) {
			t.Errorf("%s: Marshal sized its buffer %d for %d bytes", tc.scheme, cap(wire), len(wire))
		}
		m := testing.AllocsPerRun(100, func() {
			if _, err := Marshal(env); err != nil {
				t.Fatal(err)
			}
		})
		u := testing.AllocsPerRun(100, func() {
			if _, err := Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
		})
		if m > tc.marshal || u > tc.unmarshal {
			t.Errorf("%s: Marshal %v allocs (budget %v), Unmarshal %v allocs (budget %v)", tc.scheme, m, tc.marshal, u, tc.unmarshal)
		}
		t.Logf("%s: %d bytes, Marshal %v allocs, Unmarshal %v allocs", tc.scheme, len(wire), m, u)
	}
	for _, tc := range roomCases(t) {
		wire, err := Marshal(tc.env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.name, err)
		}
		got, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.env) {
			t.Errorf("%s: decoded %+v, encrypted %+v", tc.name, got, tc.env)
		}
		if re, err := Marshal(got); err != nil || !bytes.Equal(re, wire) {
			t.Errorf("%s: re-marshal differs from the wire (err %v)", tc.name, err)
		}
		u := testing.AllocsPerRun(100, func() {
			if _, err := Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
		})
		if u != tc.allocs && !raceEnabled {
			t.Errorf("%s: Unmarshal %v allocs, want %v", tc.name, u, tc.allocs)
		}
	}
}

// roomCase is an envelope at an edge of Unmarshal's decode blocks, and the
// allocations its decode makes.
type roomCase struct {
	name   string
	env    Envelope
	allocs float64
}

// roomCases returns envelopes whose names fill their block's room exactly
// or overflow it by one byte, and IBBE broadcasts on either side of the
// block's eight-recipient list, with short and with long names.
func roomCases(t testing.TB) []roomCase {
	t.Helper()
	seal := func(g Group, err error, members ...string) Envelope {
		t.Helper()
		if err != nil {
			t.Fatalf("building a group: %v", err)
		}
		for _, m := range members {
			if err := g.Add(m); err != nil {
				t.Fatalf("Add(%s): %v", m, err)
			}
		}
		env, err := g.Encrypt([]byte("at the edge of the room"))
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", g.Scheme(), err)
		}
		return env
	}
	sym := func(group string) Envelope {
		g, err := NewSymmetricGroup(group)
		return seal(g, err, "alice")
	}
	cpabe := func(group string) Envelope {
		auth, err := abe.NewAuthority()
		if err != nil {
			t.Fatalf("NewAuthority: %v", err)
		}
		g, err := NewABEGroup(group, auth, "(member)")
		return seal(g, err, "alice")
	}
	ibbe := func(group string, n, nameLen int) Envelope {
		pkg, err := ibe.NewPKG()
		if err != nil {
			t.Fatalf("NewPKG: %v", err)
		}
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("r%0*d", nameLen-1, i)
		}
		return seal(NewIBBEGroup(group, pkg), nil, members...)
	}
	name := func(n int) string { return strings.Repeat("g", n) }
	return []roomCase{
		{"symmetric, group name fills the room", sym(name(groupRoom)), 1},
		{"symmetric, group name one byte over", sym(name(groupRoom + 1)), 2},
		{"abe, group name fills the room", cpabe(name(groupRoom)), 1},
		{"abe, group name one byte over", cpabe(name(groupRoom + 1)), 2},
		{"ibbe, 8 names fill the room", ibbe(name(broadcastRoom-8*11), 8, 11), 1},
		{"ibbe, 8 names one byte over", ibbe(name(broadcastRoom-8*11+1), 8, 11), 2},
		{"ibbe, 9 short names", ibbe("g", 9, 3), 3}, // the block and two lists
		{"ibbe, 9 long names", ibbe("g", 9, 24), 4}, // and the names
	}
}

// TestDecodeBlocksFillTheirSizeClass pins the block sizes the room
// constants are chosen for: each block ends on a Go allocator size class.
func TestDecodeBlocksFillTheirSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are a 64-bit platform's")
	}
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"symBlock", unsafe.Sizeof(symBlock{}), 48},
		{"abeBlock", unsafe.Sizeof(abeBlock{}), 160},
		{"broadcastBlock", unsafe.Sizeof(broadcastBlock{}), 512},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// byteFields returns every []byte an unmarshaled envelope hands out, tables
// in key order.
func byteFields(env Envelope) [][]byte {
	switch p := env.Payload.(type) {
	case *symPayload:
		return [][]byte{p.ct}
	case subPayload:
		return [][]byte{p.fake, p.sealedIndex}
	case pkPayload:
		return append(sortedValues(p.wraps), p.body)
	case *abe.Ciphertext:
		out := [][]byte{p.PolicyText, p.Ephemeral, p.Body}
		for _, s := range p.Shares {
			out = append(out, s.Wrap)
		}
		return out
	case *ibe.Broadcast:
		return append(slices.Clone(p.WrappedKeys), p.Ephemeral, p.Body)
	}
	return nil
}

func sortedValues[K cmp.Ordered](m map[K][]byte) [][]byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([][]byte, 0, len(keys)+1)
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// allWires returns one marshaled envelope per scheme.
func allWires(t *testing.T) [][]byte {
	t.Helper()
	var wires [][]byte
	for _, sc := range allSchemes() {
		f := newFixture(t, "alice", "bob")
		g := sc.build(t, f)
		g.Add("alice")
		g.Add("bob")
		env, err := g.Encrypt([]byte("whose bytes are these"))
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", sc.name, err)
		}
		wire, err := Marshal(env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", sc.name, err)
		}
		wires = append(wires, wire)
	}
	return wires
}

// stringFields returns every string an unmarshaled envelope hands out other
// than its Scheme, which is a package constant.
func stringFields(env Envelope) []string {
	out := []string{env.Group}
	wraps := map[string][]byte{}
	switch p := env.Payload.(type) {
	case pkPayload:
		wraps = p.wraps
	case *ibe.Broadcast:
		out = append(out, p.Recipients...)
	}
	for name := range wraps {
		out = append(out, name)
	}
	return out
}

// TestLayoutIsExact holds the sizing walk to the decoding pass: for every
// payload type it returns exactly the string bytes Unmarshal copies, the tag
// it decodes and the length of its list, so no room or list regrows. A
// layout change made in one and not the other shows here rather than as a
// slow drift in allocation counts.
func TestLayoutIsExact(t *testing.T) {
	for _, wire := range allWires(t) {
		env, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		wantNames, wantList := 0, 0
		for _, s := range stringFields(env) {
			wantNames += len(s)
		}
		switch p := env.Payload.(type) {
		case pkPayload:
			wantList = len(p.wraps)
		case *abe.Ciphertext:
			wantList = len(p.Shares)
		case *ibe.Broadcast:
			wantList = len(p.Recipients)
		}
		wantTag := wire[headerSize-1+len(env.Scheme)+len(env.Group)]
		names, tag, n := layout(wire)
		if names != wantNames || tag != wantTag || n != wantList {
			t.Errorf("%s: layout = %d name bytes, tag %d, %d entries; the envelope has %d, %d, %d",
				env.Scheme, names, tag, n, wantNames, wantTag, wantList)
		}
	}
}

// sortedStrings is stringFields in sorted order, so that two envelopes'
// tables compare whatever their map iteration order.
func sortedStrings(env Envelope) []string {
	out := stringFields(env)
	slices.Sort(out)
	return out
}

// TestUnmarshalOwnership checks the envelope's view rule: every byte field
// aliases the input, no field reaches a sibling or the input past its own end
// through append, and no string aliases the input, whether its names fit
// their room or overflow it.
func TestUnmarshalOwnership(t *testing.T) {
	wires := allWires(t)
	for _, tc := range roomCases(t) {
		wire, err := Marshal(tc.env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.name, err)
		}
		wires = append(wires, wire)
	}
	for _, wire := range wires {
		pristine, err := Unmarshal(bytes.Clone(wire))
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		scheme, names := pristine.Scheme, sortedStrings(pristine)

		// Input -> envelope: scribbling over data shows through every byte
		// field and through no string.
		data := bytes.Clone(wire)
		env, _ := Unmarshal(data)
		for i := range data {
			data[i] ^= 0xA5
		}
		fields, want := byteFields(env), byteFields(pristine)
		if len(fields) == 0 {
			t.Fatalf("%s: no byte fields", scheme)
		}
		for i, f := range fields {
			for j := range f {
				if f[j] != want[i][j]^0xA5 {
					t.Errorf("%s: field %d is not a view of the input", scheme, i)
					break
				}
			}
		}
		if env.Scheme != scheme || !slices.Equal(sortedStrings(env), names) {
			t.Errorf("%s: a string aliases the input", scheme)
		}

		// Field -> sibling and field -> input: append past each field in turn;
		// no input byte, and so no other field, moves.
		data = bytes.Clone(wire)
		env, _ = Unmarshal(data)
		for i, f := range byteFields(env) {
			if cap(f) != len(f) {
				t.Errorf("%s: field %d has %d spare bytes of capacity", scheme, i, cap(f)-len(f))
			}
			_ = append(f, "overrun-overrun-overrun-overrun!"...)
		}
		if !bytes.Equal(data, wire) {
			t.Errorf("%s: appending to a field changed the input", scheme)
		}
		if !reflect.DeepEqual(env, pristine) {
			t.Errorf("%s: appending to a field changed the envelope", scheme)
		}
	}
}

// hostileHeader is a well-formed envelope up to its payload tag; hostile28 is
// the 28-byte envelope whose public-key payload declares 2^26 wraps and ends;
// eph is a well-formed ephemeral-key field.
const (
	hostileHeader = codecMagic + "\x02" + "\x00\x00\x00\x01x" + "\x00\x00\x00\x01g" + "\x00\x00\x00\x00\x00\x00\x00\x00"
	hostile28     = hostileHeader + "\x03" + "\x04\x00\x00\x00"
)

var eph = "\x00\x00\x00\x41" + "\x04" + strings.Repeat("\x01", 64)

// TestUnmarshalHostileCounts feeds every counted list a declared length the
// remaining bytes cannot hold. Envelope bytes arrive from untrusted replicas,
// so a declared length must cost nothing until the bytes behind it are there.
func TestUnmarshalHostileCounts(t *testing.T) {
	const epoch, max = "\x00\x00\x00\x00\x00\x00\x00\x00", "\xff\xff\xff\xff"
	cases := map[string]string{
		"pk wraps 2^26":        hostile28,
		"pk wraps 2^32-1":      hostileHeader + "\x03" + max,
		"abe shares":           hostileHeader + "\x04" + epoch + "\x00\x00\x00\x01a" + eph + max,
		"ibbe recipients":      hostileHeader + "\x06" + eph + max,
		"ibbe one short":       hostileHeader + "\x06" + eph + "\x00\x00\x00\x02" + epoch + "\x00\x00\x00\x00",
		"ephemeral 2^32-1":     hostileHeader + "\x06" + max,
		"bytes field 2^32-1":   hostileHeader + "\x01" + max,
		"group name past end":  codecMagic + "\x02" + "\x00\x00\x00\x00" + "\x7f\xff\xff\xff",
		"scheme name past end": codecMagic + "\x02" + max,
	}
	if len(hostile28) != 28 {
		t.Fatalf("regression input is %d bytes, want 28", len(hostile28))
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal([]byte(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(data), got)
		}
	}
}

// TestUnmarshalRefusesMalformedWraps: an ephemeral key that is not exactly
// one P-256 point, a wrap too short to hold a nonce and a tag, and a
// version-1 envelope are each ErrCodec at decode, before any reader could
// run a key agreement on them. The well-formed versions of the same bytes
// decode.
func TestUnmarshalRefusesMalformedWraps(t *testing.T) {
	const epoch = "\x00\x00\x00\x00\x00\x00\x00\x00"
	field := func(b string) string {
		return string([]byte{byte(len(b) >> 24), byte(len(b) >> 16), byte(len(b) >> 8), byte(len(b))}) + b
	}
	point := "\x04" + strings.Repeat("\x01", 64)
	wrap := strings.Repeat("\x02", 28) // nonce and tag of an empty payload
	body := field("body")
	ibbe := func(eph, w string) string {
		return hostileHeader + "\x06" + field(eph) + "\x00\x00\x00\x01" + field("alice") + field(w) + body
	}
	cpabe := func(eph, w string) string {
		return hostileHeader + "\x04" + epoch + field("member") + field(eph) + "\x00\x00\x00\x01" + "\x00\x00\x00\x01" + field(w) + body
	}
	for name, build := range map[string]func(eph, w string) string{"ibbe": ibbe, "cp-abe": cpabe} {
		if _, err := Unmarshal([]byte(build(point, wrap))); err != nil {
			t.Fatalf("%s: well-formed payload: %v", name, err)
		}
		for bad, data := range map[string]string{
			"64-byte ephemeral": build(point[:64], wrap),
			"66-byte ephemeral": build(point+"\x00", wrap),
			"empty ephemeral":   build("", wrap),
			"27-byte wrap":      build(point, wrap[:27]),
			"empty wrap":        build(point, ""),
		} {
			if _, err := Unmarshal([]byte(data)); !errors.Is(err, ErrCodec) {
				t.Errorf("%s, %s: err = %v, want ErrCodec", name, bad, err)
			}
		}
	}
	for _, env := range hotEnvelopes(t) {
		wire, err := Marshal(env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", env.Scheme, err)
		}
		if wire[len(codecMagic)] != codecVersion || codecVersion != 2 {
			t.Fatalf("%s: marshalled as version %d", env.Scheme, wire[len(codecMagic)])
		}
		wire[len(codecMagic)] = 1
		if _, err := Unmarshal(wire); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: version-1 envelope: err = %v, want ErrCodec", env.Scheme, err)
		}
	}
}

func FuzzUnmarshal(f *testing.F) {
	for _, env := range hotEnvelopes(f) {
		if wire, err := Marshal(env); err == nil {
			f.Add(wire)
		}
		if ct, ok := env.Payload.(*abe.Ciphertext); ok {
			shares := append(slices.Clone(ct.Shares), ct.Shares...)
			f.Add(abeWire(env, "( member )", shares))
			f.Add(abeWire(env, strings.Repeat("(", 1000)+"member"+strings.Repeat(")", 1000), ct.Shares))
		}
	}
	g, _ := NewSymmetricGroup("g")
	g.Add("a")
	env, _ := g.Encrypt([]byte("seed"))
	if wire, err := Marshal(env); err == nil {
		f.Add(wire)
	}
	f.Add(retiredTagWire(f))
	// The edges of the decode blocks: names that fill a room and one byte
	// more, and 8 against 9 IBBE recipients. Marshal wrote these, so they
	// must come back byte for byte.
	for _, tc := range roomCases(f) {
		wire, err := Marshal(tc.env)
		if err != nil {
			f.Fatalf("%s: Marshal: %v", tc.name, err)
		}
		env, err := Unmarshal(wire)
		if err != nil {
			f.Fatalf("%s: Unmarshal: %v", tc.name, err)
		}
		if re, err := Marshal(env); err != nil || !bytes.Equal(re, wire) {
			f.Fatalf("%s: Marshal(Unmarshal(x)) != x (err %v)", tc.name, err)
		}
		f.Add(wire)
	}
	f.Add([]byte(codecMagic))
	f.Add([]byte{})
	f.Add([]byte(hostile28))
	fx := newFixture(f, "alice")
	pk := NewPublicKeyGroup("pk", fx.registry)
	sub, _ := NewSubstitutionGroup("subst", NewDictionary(), [][]byte{[]byte("John Doe")})
	for _, g := range []Group{pk, sub} {
		g.Add("alice")
		if env, err := g.Encrypt([]byte("seed")); err == nil {
			if wire, err := Marshal(env); err == nil {
				f.Add(wire)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		env, err := Unmarshal(data)
		if !bytes.Equal(data, in) {
			t.Fatalf("Unmarshal wrote its input (err %v)", err)
		}
		if err != nil {
			return
		}
		// Anything that parses re-marshals, and the canonical bytes parse back
		// to the same envelope. They may differ from the input — a table entry
		// repeated on the wire is stored once — so compare envelopes, not bytes.
		re, err := Marshal(env)
		if err != nil {
			t.Fatalf("re-marshal of parsed envelope failed: %v", err)
		}
		env2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("canonical bytes do not parse: %v", err)
		}
		if !reflect.DeepEqual(env2, env) {
			t.Fatalf("canonicalization changed the envelope:\n got %+v\nwant %+v", env2, env)
		}
	})
}

// TestWireCorpusRoundTrips replays envelopes of every scheme marshalled
// before ABE shares became a slice and payloads became one allocation with
// their lists (testdata/wire): each decodes, and marshals back to exactly
// the bytes it came from, so replicas store, and digests hash, what they
// always did.
func TestWireCorpusRoundTrips(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "wire", "*.env"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Scheme]bool{}
	for _, file := range files {
		wire, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		env, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", file, err)
		}
		seen[env.Scheme] = true
		again, err := Marshal(env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", file, err)
		}
		if !bytes.Equal(again, wire) {
			t.Errorf("%s: Marshal(Unmarshal(b)) differs from b", file)
		}
	}
	for _, sc := range allSchemes() {
		g := sc.build(t, newFixture(t))
		if !seen[g.Scheme()] {
			t.Errorf("no %s envelope in testdata/wire", g.Scheme())
		}
	}
}

// abeWire encodes an ABE envelope by hand with the given policy text and
// shares in the given order, as a replica could send it.
func abeWire(env Envelope, policy string, shares []abe.WrappedShare) []byte {
	ct := env.Payload.(*abe.Ciphertext)
	b := append([]byte(codecMagic), codecVersion)
	b = appendField(b, env.Scheme)
	b = appendField(b, env.Group)
	b = binary.BigEndian.AppendUint64(b, env.Epoch)
	b = append(b, tagABE)
	b = binary.BigEndian.AppendUint64(b, ct.Epoch)
	b = appendField(b, policy)
	b = appendField(b, ct.Ephemeral)
	b = binary.BigEndian.AppendUint32(b, uint32(len(shares)))
	for _, s := range shares {
		b = binary.BigEndian.AppendUint32(b, s.Index)
		b = appendField(b, s.Wrap)
	}
	return appendField(b, ct.Body)
}

// TestUnmarshalABEReadsLikeAMap: an ABE payload whose policy is not in
// canonical syntax, whose shares are out of order or repeat an index decodes
// to the envelope Marshal would have written, and a repeated index keeps its
// later wrap. Each reader opens exactly what decoding the shares into a map
// let it open. A policy nested past the parser's bound is ErrCodec.
func TestUnmarshalABEReadsLikeAMap(t *testing.T) {
	f := newFixture(t, "alice", "bob")
	auth, err := abe.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewABEGroup("abe", auth, "(relative OR doctor)")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddWithAttributes("alice", "relative"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWithAttributes("bob", "doctor"); err != nil {
		t.Fatal(err)
	}
	env, err := g.Encrypt([]byte("invitation"))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	policy, shares := g.Policy(), env.Payload.(*abe.Ciphertext).Shares
	if !bytes.Equal(abeWire(env, policy, shares), canonical) {
		t.Fatal("abeWire does not encode as Marshal does")
	}
	w1, w2 := shares[0].Wrap, shares[1].Wrap
	for _, tc := range []struct {
		name      string
		policy    string
		shares    []abe.WrappedShare
		canonical bool // re-marshals to Marshal's bytes
		alice     bool
	}{
		{"noncanonical policy", "( relative  or doctor )", shares, true, true},
		{"reversed shares", policy, []abe.WrappedShare{{Index: 2, Wrap: w2}, {Index: 1, Wrap: w1}}, true, true},
		{"repeat, later right", policy, []abe.WrappedShare{{Index: 1, Wrap: w2}, {Index: 1, Wrap: w1}, {Index: 2, Wrap: w2}}, true, true},
		{"repeat, later wrong", policy, []abe.WrappedShare{{Index: 1, Wrap: w1}, {Index: 2, Wrap: w2}, {Index: 1, Wrap: w2}}, false, false},
	} {
		got, err := Unmarshal(abeWire(env, tc.policy, tc.shares))
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", tc.name, err)
		}
		again, err := Marshal(got)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.name, err)
		}
		if bytes.Equal(again, canonical) != tc.canonical {
			t.Errorf("%s: re-marshals to Marshal's bytes: %v, want %v", tc.name, !tc.canonical, tc.canonical)
		}
		if pt, err := g.Decrypt(f.users["alice"], got); (err == nil) != tc.alice || (err == nil && string(pt) != "invitation") {
			t.Errorf("%s: alice reads %q, %v; want success %v", tc.name, pt, err, tc.alice)
		}
		if pt, err := g.Decrypt(f.users["bob"], got); err != nil || string(pt) != "invitation" {
			t.Errorf("%s: bob reads %q, %v", tc.name, pt, err)
		}
	}
	for _, depth := range []int{1000, 3_000_000} {
		deep := strings.Repeat("(", depth) + "relative" + strings.Repeat(")", depth)
		if _, err := Unmarshal(abeWire(env, deep, shares)); !errors.Is(err, ErrCodec) {
			t.Errorf("policy %d parentheses deep: err = %v, want ErrCodec", depth, err)
		}
	}
}
