// Command perfbench is Waterwheel's end-to-end benchmark. It opens an
// embedded deployment in its own process, serves it with DB.Serve on
// loopback and from then on drives it only through waterwheel.Client,
// checking every result against an oracle computed apart from the
// program. The last line of its output is one JSON object with the
// operations attempted and failed and the metrics: end-to-end metrics
// with -trace 0, per-layer metrics with -trace 1. See README.md.
//
//	perfbench -workload history -seed 1 -seconds 10 -trace 0
//	perfbench -workload history -steady 5 -seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "ingest or history")
		seed     = flag.Int64("seed", 1, "seed of every input")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
		root     = flag.String("dir", ".bench_build/run", "directory for the run's data files")
		steady   = flag.Int("steady", 0, "steadiness mode: run the workload in two interleaved sets of this many runs each")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(os.Stdout, *workload, *seconds, *trace == 1, *steady, *root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	p := params{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, scale: 1}
	res, err := runOnce(p, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOnce runs one workload and returns its result line; info lines go to
// out. An error means the run could not complete, and no result is due.
func runOnce(p params, out io.Writer) (*result, error) {
	if err := os.MkdirAll(p.root, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), p.workload, p.seed, p.seconds, p.trace)
	b := newBench(p, out)
	if err := b.run(); err != nil {
		b.close()
		return nil, err
	}
	res := &result{Correct: !b.checkFailed.Load()}
	res.Attempted, res.Failed = b.ops.totals()
	b.ops.write(out)
	e2e := b.endToEnd()
	writeMetrics(out, "e2e", e2e)
	res.Metrics = e2e
	if p.trace {
		rp, err := b.replayWritePath(b.chunkBytes)
		if err != nil {
			b.close()
			return nil, err
		}
		fmt.Fprintf(out, "replay tuples=%d batches=%d dispatched_runs=%d chunks=%d\n", rp.tuples, len(b.replay), rp.runs, rp.chunks)
		res.Metrics = b.perLayer(rp)
		writeMetrics(out, "layer", res.Metrics)
	}
	b.close()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s attempted no operation", p.workload)
	}
	return res, nil
}

// steadiness runs the workload in two interleaved sets of n runs, each
// run a child process with its own seed, and prints per metric each set's
// median and quartiles, the spread (interquartile distance over the
// median) of each set and of both together, and the ratio of the second
// set's median to the first's.
func steadiness(out io.Writer, workload string, seconds float64, trace bool, n int, root string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	units := map[string]string{}
	shares := [2][]string{}
	for i := 0; i < 2*n; i++ {
		set, seed := i%2, int64(i/2+1)
		if set == 1 {
			seed += 1000
		}
		traceArg := "0"
		if trace {
			traceArg = "1"
		}
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-dir", root)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: bad result line: %w", i, err)
		}
		shares[set] = append(shares[set], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			sets[set][name] = append(sets[set][name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(out, "run %2d set %d seed %4d correct=%v failed/attempted=%d/%d\n", i, set, seed, res.Correct, res.Failed, res.Attempted)
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(out, fmtRow(fmt.Sprintf("%-40s", "metric"), fmt.Sprintf("%-8s", "unit"),
		fmt.Sprintf("%34s", "set A q1 / median / q3"), fmt.Sprintf("%7s", "spreadA"),
		fmt.Sprintf("%34s", "set B q1 / median / q3"), fmt.Sprintf("%7s", "spreadB"), fmt.Sprintf("%7s", "spread"), "B/A"))
	for _, name := range names {
		a1, a2, a3 := quartiles(sets[0][name])
		b1, b2, b3 := quartiles(sets[1][name])
		fmt.Fprintln(out, fmtRow(fmt.Sprintf("%-40s", name), fmt.Sprintf("%-8s", units[name]),
			fmt.Sprintf("%10.4g / %10.4g / %10.4g", a1, a2, a3), fmt.Sprintf("%7.4f", spread(a1, a2, a3)),
			fmt.Sprintf("%10.4g / %10.4g / %10.4g", b1, b2, b3), fmt.Sprintf("%7.4f", spread(b1, b2, b3)),
			fmt.Sprintf("%7.4f", spread(quartiles(append(append([]float64(nil), sets[0][name]...), sets[1][name]...)))),
			fmt.Sprintf("%.4f", ratio(b2, a2))))
	}
	fmt.Fprintf(out, "failed/attempted set A: %s\nfailed/attempted set B: %s\n", strings.Join(shares[0], " "), strings.Join(shares[1], " "))
	return nil
}

func spread(q1, q2, q3 float64) float64 { return ratio(q3-q1, q2) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
