package tensor

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// updateExpLog regenerates testdata/explog.txt from math.Exp and math.Log;
// run it only where mathExpFused holds.
var updateExpLog = flag.Bool("update-explog", false, "regenerate testdata/explog.txt from math.Exp and math.Log")

const expLogTable = "testdata/explog.txt"

// mathExpFused reports whether math.Exp takes archExp's FMA path: amd64
// with FMA and AVX, neither switched off through GODEBUG. math.Log is
// log_amd64.s on every amd64 host.
func mathExpFused() bool {
	g := os.Getenv("GODEBUG")
	for _, off := range []string{"cpu.fma=off", "cpu.avx=off", "cpu.all=off"} {
		if strings.Contains(g, off) {
			return false
		}
	}
	return detectedFeatures.fma && detectedFeatures.avx2
}

// expLogArgs are the table's arguments: the special values, the edges of
// Exp's overflow, subnormal and underflow paths and of Log's reduction,
// both sides of each, and draws over the ranges the kernels meet.
func expLogArgs() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000002),
		1, -1, 0.5, 2, math.E, 709.78, 7.09782712893384e+02, 709.79, 710, -708.39, -708.4, -709,
		-744.4, -745.13, -745.14, -745.2, -746, -1e300, 1e300, -math.MaxFloat64, math.MaxFloat64,
		5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308,
		0.70710678118654752440, math.Float64frombits(0x3FE6A09E667F3BCC), math.Float64frombits(0x3FE6A09E667F3BCE),
		1e-20, -1e-20, 0x1p-30, 1023 * math.Ln2, 1024 * math.Ln2, -1022 * math.Ln2, -1074 * math.Ln2}
	n := len(xs)
	for _, x := range xs[:n] {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 128; i++ {
		xs = append(xs, -rng.Float64()*800, rng.Float64()*720, rng.Float64(), rng.NormFloat64()*30,
			math.Float64frombits(rng.Uint64()))
	}
	return xs
}

// TestExpLogTable holds Exp and Log to the bits recorded in
// testdata/explog.txt from math.Exp and math.Log on an amd64 host with FMA,
// and, where math takes those paths here, also to math itself.
func TestExpLogTable(t *testing.T) {
	if *updateExpLog {
		if !mathExpFused() || runtime.GOARCH != "amd64" {
			t.Fatal("-update-explog needs math.Exp's FMA path: an amd64 host with FMA and no GODEBUG cpu switch")
		}
		var b strings.Builder
		b.WriteString("# x, math.Exp(x), math.Log(x) as float64 bits: amd64 with FMA (tensor's TestExpLogTable)\n")
		for _, x := range expLogArgs() {
			fmt.Fprintf(&b, "%016x %016x %016x\n", math.Float64bits(x), math.Float64bits(math.Exp(x)), math.Float64bits(math.Log(x)))
		}
		if err := os.WriteFile(expLogTable, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rows := readExpLogTable(t)
	if len(rows) < len(expLogArgs()) {
		t.Fatalf("%s has %d rows, want %d", expLogTable, len(rows), len(expLogArgs()))
	}
	for _, r := range rows {
		x := math.Float64frombits(r[0])
		if got := math.Float64bits(Exp(x)); got != r[1] {
			t.Errorf("Exp(%#x) = %#x, table %#x", r[0], got, r[1])
		}
		if got := math.Float64bits(Log(x)); got != r[2] {
			t.Errorf("Log(%#x) = %#x, table %#x", r[0], got, r[2])
		}
		if mathExpFused() && math.Float64bits(math.Exp(x)) != r[1] {
			t.Errorf("math.Exp(%#x) = %#x, table %#x", r[0], math.Float64bits(math.Exp(x)), r[1])
		}
		if runtime.GOARCH == "amd64" && math.Float64bits(math.Log(x)) != r[2] {
			t.Errorf("math.Log(%#x) = %#x, table %#x", r[0], math.Float64bits(math.Log(x)), r[2])
		}
	}
}

// readExpLogTable reads testdata/explog.txt's rows: x, Exp(x), Log(x).
func readExpLogTable(t testing.TB) [][3]uint64 {
	t.Helper()
	f, err := os.Open(expLogTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][3]uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var r [3]uint64
		if _, err := fmt.Sscanf(sc.Text(), "%x %x %x", &r[0], &r[1], &r[2]); err != nil {
			t.Fatalf("%s: %q: %v", expLogTable, sc.Text(), err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// expLogSeeds adds the table's arguments to a fuzz corpus and returns the
// table by argument, for the hosts where math is not the oracle.
func expLogSeeds(f *testing.F) map[uint64][3]uint64 {
	byArg := map[uint64][3]uint64{}
	for _, r := range readExpLogTable(f) {
		f.Add(r[0])
		byArg[r[0]] = r
	}
	return byArg
}

// FuzzExpMatchesMath holds Exp bit for bit to math.Exp where math.Exp takes
// its FMA path, and elsewhere to the committed table's arguments.
func FuzzExpMatchesMath(f *testing.F) {
	table, fused := expLogSeeds(f), mathExpFused()
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		want, ok := math.Float64bits(math.Exp(x)), fused
		if !fused {
			r, in := table[bits]
			want, ok = r[1], in
		}
		if got := math.Float64bits(Exp(x)); ok && got != want {
			t.Fatalf("Exp(%v = %#x) = %#x, want %#x", x, bits, got, want)
		}
	})
}

// FuzzLogMatchesMath holds Log bit for bit to math.Log on amd64, and
// elsewhere to the committed table's arguments.
func FuzzLogMatchesMath(f *testing.F) {
	table, asm := expLogSeeds(f), runtime.GOARCH == "amd64"
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		want, ok := math.Float64bits(math.Log(x)), asm
		if !asm {
			r, in := table[bits]
			want, ok = r[2], in
		}
		if got := math.Float64bits(Log(x)); ok && got != want {
			t.Fatalf("Log(%v = %#x) = %#x, want %#x", x, bits, got, want)
		}
	})
}
