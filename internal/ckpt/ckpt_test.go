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

// TestEncoderDecoderRoundTrip covers every primitive, including exact NaN
// and signed-zero float bit patterns.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	ts := []*tensor.Tensor{
		tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3),
		tensor.New(4),
		tensor.MustFromSlice([]float32{-0.5}, 1, 1, 1),
	}
	m := map[int]float64{3: 1.5, 1: math.NaN(), 2: math.Inf(-1), -7: 0.1}

	var e Encoder
	e.PutInt(-42)
	e.PutUint64(1 << 63)
	e.PutFloat64(math.Copysign(0, -1))
	e.PutFloat64(math.NaN())
	e.PutString("héllo")
	e.PutBytes([]byte{9, 8, 7})
	if err := e.PutTensors(ts); err != nil {
		t.Fatal(err)
	}
	e.PutFloat64Map(m)

	d := NewDecoder(e.Bytes())
	if v := d.Int(); v != -42 {
		t.Fatalf("Int %d", v)
	}
	if v := d.Uint64(); v != 1<<63 {
		t.Fatalf("Uint64 %d", v)
	}
	if v := d.Float64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0.0 bits lost: %v", v)
	}
	if v := d.Float64(); !math.IsNaN(v) {
		t.Fatalf("NaN lost: %v", v)
	}
	if s := d.String(); s != "héllo" {
		t.Fatalf("String %q", s)
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{9, 8, 7}) {
		t.Fatalf("Bytes %v", b)
	}
	got := d.Tensors()
	if len(got) != len(ts) {
		t.Fatalf("got %d tensors", len(got))
	}
	for i := range ts {
		if !got[i].Equal(ts[i]) {
			t.Fatalf("tensor %d differs", i)
		}
	}
	gm := d.Float64Map()
	if len(gm) != len(m) {
		t.Fatalf("map size %d", len(gm))
	}
	for k, v := range m {
		if math.Float64bits(gm[k]) != math.Float64bits(v) {
			t.Fatalf("map[%d] = %v, want %v", k, gm[k], v)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderCorruption: every getter on truncated input reports ErrCorrupt
// and stays sticky.
func TestDecoderCorruption(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if v := d.Uint64(); v != 0 {
		t.Fatalf("truncated Uint64 returned %d", v)
	}
	if !errors.Is(d.Done(), ErrCorrupt) {
		t.Fatalf("err %v", d.Done())
	}
	// Sticky: further reads keep returning zero values.
	if d.Int() != 0 || d.String() != "" || d.Tensor() != nil {
		t.Fatal("decoder not sticky after error")
	}

	// Huge claimed tensor count must not allocate.
	var e Encoder
	e.PutUint64(1 << 60)
	d = NewDecoder(e.Bytes())
	d.Tensors()
	if !errors.Is(d.Done(), ErrCorrupt) {
		t.Fatalf("huge tensor count: %v", d.Done())
	}

	// Trailing bytes fail Done.
	d = NewDecoder([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	d.Uint64()
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
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
		var e Encoder
		if err := e.PutTensors(ts); err != nil {
			t.Fatal(err)
		}
		blob, err := Marshal([]Section{{Name: "model", Body: e.Bytes()}})
		if err != nil {
			t.Fatal(err)
		}
		sections, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(sections[0].Body)
		got := d.Tensors()
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if !got[i].Equal(ts[i]) {
				t.Fatalf("trial %d: tensor %d differs", trial, i)
			}
		}
	}
}
