// Command perfbench is the repository benchmark. It runs one named
// workload against the PBQP selector, the compiled Program IR, the
// batched engine and the HTTP serving tier, measuring each from outside
// through its public calls, checks the outputs against exec.Reference,
// and prints one JSON result as its last output line. Run it from the
// repository root through the wrapper, which builds it first:
//
//	bash perfbench/run.sh --workload serve-smallnet --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload and seed with every engine profiling every batch, records a
// span around each module call, prints the per-layer metrics and writes
// the spans to .bench_build/perfbench/. README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// run carries one benchmark run's settings and what it has measured.
type run struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil for an untraced run
	prov    *Provenance
	dir     string // where traces and repeat records are written

	got               map[string]float64
	attempted, failed int64
	problems          []error
}

// check records a failed correctness or repeat check (nil is a pass).
func (r *run) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err)
	}
}

// note prints a human-readable line ahead of the result.
func (r *run) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// windows splits the measured time between the serving workload's
// open-loop and closed-loop phases.
func (r *run) windows() (open, closed time.Duration) {
	open = time.Duration(openShare * float64(r.seconds))
	return open, r.seconds - open
}

// workloads maps each workload name to its runner. README.md records
// why each was chosen and which metrics it is expected to move.
var workloads = map[string]func(*run) error{
	"serve-smallnet":  runServe,
	"batch-googlenet": runBatch,
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve-smallnet or batch-googlenet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs and arrival schedule are drawn from")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: print end-to-end metrics; 1: traced run, print per-layer metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("perfbench: unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("perfbench: want --seconds ≥ 1 and --trace 0 or 1, got %d and %d", seconds, trace)
	}
	prov, err := newProvenance(workload, seed, trace == 1, ".")
	if err != nil {
		return err
	}
	r := &run{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		prov:    prov,
		dir:     ".bench_build/perfbench",
		got:     map[string]float64{},
	}
	defs := endToEnd
	if trace == 1 {
		r.tr = newTracer()
		defs = perLayer()
	}
	if err := fn(r); err != nil {
		return err
	}
	if r.tr != nil {
		path, err := r.tr.write(r.dir, prov)
		if err != nil {
			return fmt.Errorf("perfbench: writing trace: %w", err)
		}
		r.note("trace written to %s", path)
	}
	metrics, err := report(defs, r.got)
	if err != nil {
		return err
	}
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("# provenance %s\n", pb)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res, err := json.Marshal(Result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if len(r.problems) > 0 {
		os.Exit(1)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
