package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fedfteds/internal/tensor"
)

// putCRC writes the container checksum of body into dst.
func putCRC(dst, body []byte) {
	binary.LittleEndian.PutUint32(dst, crc32.Checksum(body, crcTable))
}

// testSections returns a representative multi-section payload.
func testSections() []Section {
	return []Section{
		{Name: "meta", Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "model", Body: bytes.Repeat([]byte{0xAB}, 300)},
		{Name: "empty", Body: nil},
		{Name: "history", Body: []byte("not really a history")},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	want := testSections()
	blob, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || !bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("section %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestMarshalDeterministic pins byte-identical output for identical input —
// the property the golden-checkpoint CI gate relies on.
func TestMarshalDeterministic(t *testing.T) {
	a, err := Marshal(testSections())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(testSections())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Marshal is not deterministic")
	}
}

// TestUnmarshalCorruption is the satellite corruption matrix: truncations at
// every boundary class, flipped bytes everywhere, wrong magic, wrong version
// and wrong checksum must all return an error wrapping ErrCorrupt — never
// panic, never partially load.
func TestUnmarshalCorruption(t *testing.T) {
	blob, err := Marshal(testSections())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		// Every prefix of a valid file is invalid: either structurally
		// truncated or failing the checksum.
		for n := 0; n < len(blob); n++ {
			if _, err := Unmarshal(blob[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
			}
		}
	})

	t.Run("flipped byte", func(t *testing.T) {
		// A single flipped bit anywhere must be caught by the checksum (or
		// by the magic/structure checks that run before it).
		for i := 0; i < len(blob); i++ {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 0x40
			if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at byte %d: got %v, want ErrCorrupt", i, err)
			}
		}
	})

	t.Run("wrong version", func(t *testing.T) {
		// A future version with a valid checksum must fail as ErrVersion
		// (which also satisfies ErrCorrupt).
		bad := append([]byte(nil), blob...)
		bad[len(magic)] = 99
		bad = reseal(bad)
		_, err := Unmarshal(bad)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ErrVersion must wrap ErrCorrupt, got %v", err)
		}
	})

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		copy(bad, "NOTACKPT")
		bad = reseal(bad)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("oversized section length", func(t *testing.T) {
		// A resealed (checksum-valid) file whose section length overruns the
		// payload must still fail structurally.
		e := Section{Name: "x", Body: []byte{1, 2, 3}}
		good, err := Marshal([]Section{e})
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), good...)
		// The body-length field sits after header(16) + nameLen(2) + name(1).
		bad[19] = 0xFF
		bad = reseal(bad)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, err := Unmarshal(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// reseal rewrites a tampered blob's trailing CRC so it passes the checksum,
// exposing the structural validation underneath.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	out := append([]byte(nil), body...)
	var crc [4]byte
	putCRC(crc[:], body)
	return append(out, crc[:]...)
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, 3)
	if err := Save(path, testSections()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(testSections()) {
		t.Fatalf("got %d sections", len(got))
	}
	// No temporary files may survive a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	// Overwriting the same round is atomic too.
	if err := Save(path, testSections()[:1]); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("overwrite not applied: %d sections", len(got))
	}
}

func TestLoadLatest(t *testing.T) {
	dir := t.TempDir()

	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := LoadLatest(filepath.Join(dir, "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: got %v, want ErrNoCheckpoint", err)
	}

	for _, round := range []int{1, 2, 10} {
		if err := Save(Path(dir, round), []Section{{Name: "meta", Body: []byte{byte(round)}}}); err != nil {
			t.Fatal(err)
		}
	}
	round, sections, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if round != 10 || sections[0].Body[0] != 10 {
		t.Fatalf("got round %d, want 10", round)
	}

	// A corrupt newest checkpoint falls back to the next valid one.
	if err := os.WriteFile(Path(dir, 11), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	round, _, err = LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if round != 10 {
		t.Fatalf("fallback past corrupt newest: got round %d, want 10", round)
	}

	// All corrupt: a joined error, not ErrNoCheckpoint.
	all := t.TempDir()
	if err := os.WriteFile(Path(all, 1), []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(all); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt dir: got %v", err)
	}

	rounds, err := Rounds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2, 10, 11}) {
		t.Fatalf("rounds %v", rounds)
	}

	// Only exactly-canonical names count: backups, unpadded or otherwise
	// non-round-trippable names must be ignored, not half-parsed.
	for _, name := range []string{
		"round-000000004.fedckpt.bak", // backup suffix
		"round-4.fedckpt",             // unpadded
		"round-00000004x.fedckpt",     // non-digit
		"round-0000000044.fedckpt",    // ten digits
		"notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rounds, err = Rounds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2, 10, 11}) {
		t.Fatalf("non-canonical names leaked into rounds: %v", rounds)
	}
}

// TestEncoderDecoderRoundTrip covers every Coder field kind in both
// directions, including exact NaN and signed-zero float bit patterns.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	ts := []*tensor.Tensor{
		tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3),
		tensor.New(4),
		tensor.MustFromSlice([]float32{-0.5}, 1, 1, 1),
	}
	m := map[int]float64{3: 1.5, 1: math.NaN(), 2: math.Inf(-1), -7: 0.1}
	type fields struct {
		i       int
		u       uint64
		negZero float64
		nan     float64
		yes, no bool
		s       string
		b       []byte
		ts      []*tensor.Tensor
		m       map[int]float64
	}
	code := func(c *Coder, f *fields) {
		c.Int(&f.i)
		c.Uint64(&f.u)
		c.Float64(&f.negZero)
		c.Float64(&f.nan)
		c.Bool(&f.yes)
		c.Bool(&f.no)
		c.String(&f.s)
		c.Bytes(&f.b)
		c.Tensors(&f.ts)
		c.Float64Map(&f.m)
	}
	in := fields{i: -42, u: 1 << 63, negZero: math.Copysign(0, -1), nan: math.NaN(), yes: true,
		s: "héllo", b: []byte{9, 8, 7}, ts: ts, m: m}
	body, err := Encode(func(c *Coder) { code(c, &in) })
	if err != nil {
		t.Fatal(err)
	}
	var d fields
	if err := Decode(body, func(c *Coder) { code(c, &d) }); err != nil {
		t.Fatal(err)
	}
	if d.i != -42 {
		t.Fatalf("Int %d", d.i)
	}
	if d.u != 1<<63 {
		t.Fatalf("Uint64 %d", d.u)
	}
	if math.Float64bits(d.negZero) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0.0 bits lost: %v", d.negZero)
	}
	if !math.IsNaN(d.nan) {
		t.Fatalf("NaN lost: %v", d.nan)
	}
	if !d.yes || d.no {
		t.Fatalf("Bool %v %v", d.yes, d.no)
	}
	if d.s != "héllo" {
		t.Fatalf("String %q", d.s)
	}
	if !bytes.Equal(d.b, []byte{9, 8, 7}) {
		t.Fatalf("Bytes %v", d.b)
	}
	if len(d.ts) != len(ts) {
		t.Fatalf("got %d tensors", len(d.ts))
	}
	for i := range ts {
		if !d.ts[i].Equal(ts[i]) {
			t.Fatalf("tensor %d differs", i)
		}
	}
	if len(d.m) != len(m) {
		t.Fatalf("map size %d", len(d.m))
	}
	for k, v := range m {
		if math.Float64bits(d.m[k]) != math.Float64bits(v) {
			t.Fatalf("map[%d] = %v, want %v", k, d.m[k], v)
		}
	}
}

// TestDecoderCorruption: every field on truncated input reports ErrCorrupt
// and stays sticky.
func TestDecoderCorruption(t *testing.T) {
	var (
		u  uint64
		i  int
		s  string
		ts []*tensor.Tensor
	)
	err := Decode([]byte{1, 2}, func(c *Coder) {
		c.Uint64(&u)
		if u != 0 {
			t.Fatalf("truncated Uint64 returned %d", u)
		}
		// Sticky: further reads keep returning zero values.
		i, s, ts = 5, "x", []*tensor.Tensor{tensor.New(1)}
		c.Int(&i)
		c.String(&s)
		c.Tensors(&ts)
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err %v", err)
	}
	if i != 0 || s != "" || ts != nil {
		t.Fatal("decoder not sticky after error")
	}

	// Huge claimed tensor count must not allocate.
	huge, err := Encode(func(c *Coder) { n := uint64(1 << 60); c.Uint64(&n) })
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(huge, func(c *Coder) { c.Tensors(&ts) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge tensor count: %v", err)
	}

	// Trailing bytes fail.
	if err := Decode([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, func(c *Coder) { c.Uint64(&u) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}

	// A bool is one byte, 0 or 1; anything else is corruption.
	var b bool
	if err := Decode([]byte{2}, func(c *Coder) { c.Bool(&b) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bool byte 2: %v", err)
	}

	// Encoding a nil tensor fails without a panic.
	if _, err := Encode(func(c *Coder) { c.Tensors(&[]*tensor.Tensor{nil}) }); err == nil {
		t.Fatal("nil tensor encoded")
	}
}

// TestTensorRoundTripProperty is the satellite property test: random tensor
// sets with random shapes survive an encode/marshal/unmarshal/decode cycle
// bit for bit.
func TestTensorRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		ts := make([]*tensor.Tensor, n)
		for i := range ts {
			rank := 1 + rng.Intn(4)
			shape := make([]int, rank)
			for j := range shape {
				shape[j] = 1 + rng.Intn(5)
			}
			ts[i] = tensor.New(shape...)
			ts[i].FillNormal(rng, 0, 3)
		}
		body, err := Encode(func(c *Coder) { c.Tensors(&ts) })
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Marshal([]Section{{Name: "model", Body: body}})
		if err != nil {
			t.Fatal(err)
		}
		sections, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		var got []*tensor.Tensor
		if err := Decode(sections[0].Body, func(c *Coder) { c.Tensors(&got) }); err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if !got[i].Equal(ts[i]) {
				t.Fatalf("trial %d: tensor %d differs", trial, i)
			}
		}
	}
}
