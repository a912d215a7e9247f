package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickLedger runs every workload in quick mode, untraced and traced, and
// checks the report against BENCHMARK.json and the trace against itself.
func TestQuickLedger(t *testing.T) {
	spec := readBenchmarkFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	out := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, spec.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			crcs := map[string]bool{}
			for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				res, err := measure(w, options{seed: heldOutSeed, trace: trace, quick: true, out: out}, procs)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d problems=%v",
						trace, res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				crcs[res.StateCRC] = true
				got := res.Metrics
				if len(got) != len(want) {
					t.Errorf("trace %d: %d metrics emitted, BENCHMARK.json lists %d", trace, len(got), len(want))
				}
				for _, m := range want {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %d: %s not emitted", trace, m.Name)
					case v.Unit != m.Unit:
						t.Errorf("trace %d: %s has unit %q, BENCHMARK.json says %q", trace, m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("trace %d: %s is %v", trace, m.Name, v.Value)
					case trace == 0 && v.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
					}
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				back := new(result)
				if err := json.Unmarshal(b, back); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, back) {
					t.Errorf("trace %d: report does not round-trip through JSON", trace)
				}
				if trace == 1 {
					checkAccounting(t, res)
				}
			}
			if len(crcs) != 1 {
				t.Errorf("untraced and traced runs ended in different models: %v", crcs)
			}
			checkTrace(t, filepath.Join(out, "trace-"+w.Name+".jsonl"))
		})
	}
}

// checkAccounting: the layer shares and the residual tile the round wall.
// Full-size runs leave a residual of 3-15% (README.md); the quick mode's two
// rounds and single-shot probes estimate training roughly and on a busy box
// erratically, so the test only catches a phase that is missing altogether.
func checkAccounting(t *testing.T, res *result) {
	t.Helper()
	var total float64
	for name, m := range res.Metrics {
		if len(name) > 6 && name[len(name)-6:] == ".share" {
			total += m.Value
		}
	}
	residual := res.Metrics["core.layer_residual_share"].Value
	if math.Abs(total+residual-1) > 1e-6 {
		t.Errorf("layer shares %.6f + residual %.6f do not account for the round wall", total, residual)
	}
	if math.Abs(residual) > 0.6 {
		t.Errorf("core.layer_residual_share = %.3f, want within 0.6", residual)
	}
}

// checkTrace: every span's parent exists, is in its lane and encloses it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("empty trace")
	}
	roots := 0
	for i, s := range spans {
		if !nameRE.MatchString(s.Name) || s.End < s.Start {
			t.Errorf("span %d: bad span %+v", i, s)
		}
		if s.Parent == -1 {
			roots++
			continue
		}
		if s.Parent < 0 || s.Parent >= len(spans) {
			t.Fatalf("span %d (%s): parent %d does not exist", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Lane != s.Lane || p.Start > s.Start || s.End > p.End {
			t.Errorf("span %d (%s) is not enclosed by its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	if roots == len(spans) {
		t.Error("no span has a parent")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{Name: "child-b", Start: 5 * ms, End: 15 * ms, Lane: -1},
		{Name: "parent", Start: 0, End: 20 * ms, Lane: -1},
		{Name: "child-a", Start: 0, End: 10 * ms, Lane: -1},
		{Name: "other-lane", Start: 1 * ms, End: 2 * ms, Lane: 0},
	}
	ss := newSpanSet(spans, 0)
	for i, s := range ss.spans {
		want := map[string]float64{"parent": 5, "child-a": 10, "child-b": 10, "other-lane": 1}[s.Name]
		if ss.self[i] != want {
			t.Errorf("%s: self time %v ms, want %v", s.Name, ss.self[i], want)
		}
		if s.Name == "other-lane" && s.Parent != -1 {
			t.Errorf("span nested across lanes: %+v", s)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 89 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p89", v, p)
	}
	if v, p := tail(xs[:5]); v != 3 || p != 50 {
		t.Errorf("tail of 5 samples = %v at p%v, want the median", v, p)
	}
}
