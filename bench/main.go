// Command bench is the repository's performance ledger: five whole-system
// workloads over the simulator, the loopback-TCP federation and the virtual
// fleet, each reported end to end (untraced) and layer by layer (traced),
// with the outputs checked in the same command. See README.md.
//
// Run with one -workload and -trace 0 or 1 it measures that workload in that
// mode and prints one JSON result as its last line (the form the benchmark
// driver calls, through run.sh). Run any other way it runs every requested
// workload untraced, traced and untraced again in child processes, checks the
// three runs trained bit-identical models, and prints and stores the ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fedfteds/internal/tensor"
)

// Seeds recorded in BENCHMARK.json's companion README: the default, and a
// held-out one no sizing decision was made on.
const (
	defaultSeed = 20250101
	heldOutSeed = 77001
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

type options struct {
	workloads stringList
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	out       string
	report    string
}

func main() {
	var o options
	flag.Var(&o.workloads, "workload", "workload to run (repeatable; default all)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed every workload input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run of one workload measures")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; default both")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes and two measured rounds (tests)")
	flag.StringVar(&o.out, "out", defaultOut(), "directory for traces and the ledger")
	flag.StringVar(&o.report, "report", "", "also write the single run's full result to this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut is bench/out, whether the command is started from the
// repository root (as run.sh does) or from the bench directory.
func defaultOut() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	for _, name := range o.workloads {
		if _, ok := workloadByName(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	// No workload runs more than procs busy goroutines or connections.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if len(o.workloads) == 1 && (o.trace == 0 || o.trace == 1) {
		w, _ := workloadByName(o.workloads[0])
		res, err := measure(w, o, procs)
		if err != nil {
			return err
		}
		return emit(res, o.report)
	}
	return ledger(o, procs)
}

// measure runs blocks of one workload until the time is spent. The untraced
// mode repeats plain blocks; the traced mode alternates plain and traced ones,
// which yields the tracing overhead and shows, by the state CRC, that the
// decorators do not perturb the program.
func measure(w workload, o options, procs int) (*result, error) {
	traced := o.trace == 1
	res := &result{Workload: w.Name, Seed: o.seed, Traced: traced, Quick: o.quick, Target: w.Target}
	var plain, withTrace []*block
	start := time.Now()
	var longest time.Duration
	for n := 0; ; n++ {
		elapsed := time.Since(start)
		if n >= 2 && (o.quick || elapsed+longest > time.Duration(o.seconds*float64(time.Second))) {
			break
		}
		env := runEnv{seed: o.seed, quick: o.quick, procs: procs}
		if traced && n%2 == 1 {
			env.tr = newTracer()
		}
		b, err := w.run(w, env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if b.PeakRSSMiB, err = peakRSSMiB(); err != nil {
			return nil, err
		}
		if env.tr != nil {
			withTrace = append(withTrace, b)
		} else {
			plain = append(plain, b)
		}
		longest = max(longest, time.Since(start)-elapsed)
	}
	all := append(append([]*block(nil), plain...), withTrace...)
	res.Blocks = len(all)
	res.Problems = check(w, o.quick, all)
	for _, b := range all {
		res.Attempted += b.Attempted
		res.Failed += b.Failed
	}
	res.StateCRC = fmt.Sprintf("%08x", all[0].CRC)
	if !traced {
		endToEnd(w, plain, res)
	} else {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		last := withTrace[len(withTrace)-1]
		probes, err := runProbes(last.kit, o.quick, o.out)
		if err != nil {
			return nil, err
		}
		perLayer(w, runEnv{quick: o.quick, procs: procs}, withTrace, plain, probes, res)
		if err := flushTrace(filepath.Join(o.out, "trace-"+w.Name+".jsonl"), last.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// emit prints the human-readable result, then the one-line JSON object the
// benchmark driver reads, and exits non-zero through its error when the
// correctness gate failed.
func emit(res *result, reportPath string) error {
	printResult(os.Stdout, res)
	if reportPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed: %s", res.Workload, strings.Join(res.Problems, "; "))
	}
	return nil
}

// header describes the box and the build a ledger was measured on.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"tensor_kernel"`
	CalibMs    float64 `json:"bench.calib_ms"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

func newHeader(o options, procs int) header {
	h := header{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		CPUModel: "unknown", Kernel: tensor.ActiveKernel(), CalibMs: calibMs(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// ledgerFile is the stored form of a full run.
type ledgerFile struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

// ledger runs every requested workload in child processes — a fresh process
// per run, so peak_rss_mib is the workload's own — untraced, traced and
// untraced again, and checks that all three trained the same model.
func ledger(o options, procs int) error {
	names := o.workloads
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	modes := []int{0, 1, 0}
	if o.trace == 0 || o.trace == 1 {
		modes = []int{o.trace}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	file := ledgerFile{Header: newHeader(o, procs)}
	hb, _ := json.Marshal(file.Header)
	fmt.Printf("bench ledger %s\n", hb)
	var failures []error
	for _, name := range names {
		crcs := map[string]bool{}
		for i, mode := range modes {
			report := filepath.Join(o.out, fmt.Sprintf("run-%s-%d.json", name, i))
			args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(mode), "-out", o.out, "-report", report}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failures = append(failures, fmt.Errorf("%s -trace %d: %w", name, mode, err))
			}
			b, err := os.ReadFile(report)
			if err != nil {
				failures = append(failures, err)
				continue
			}
			res := new(result)
			if err := json.Unmarshal(b, res); err != nil {
				return err
			}
			if err := os.Remove(report); err != nil {
				return err
			}
			// The repeat run only backs the bit-identity check.
			if i < 2 {
				file.Results = append(file.Results, res)
			}
			crcs[res.StateCRC] = true
		}
		if len(crcs) > 1 {
			failures = append(failures, fmt.Errorf("%s: runs of one seed ended in %d different models", name, len(crcs)))
		}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("ledger-seed-%d.json", o.seed))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nledger written to %s\n", path)
	return errors.Join(failures...)
}

// printResult writes the human-readable form of a result.
func printResult(w io.Writer, res *result) {
	mode := "untraced, end to end"
	if res.Traced {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d: %d blocks, %d measured rounds, state crc32c %s\n",
		res.Workload, mode, res.Seed, res.Blocks, res.Rounds, res.StateCRC)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if res.Traced {
		fmt.Fprintf(w, "  core.round_ms_tail is the p%.1f of %d rounds\n", res.TailPercentile, res.Rounds)
	} else {
		fmt.Fprintf(w, "  accuracy %.2f first reached in measured round %d\n", res.Target, res.RoundsToTarget)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}
