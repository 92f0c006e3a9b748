// Command perfbench is the repository's end-to-end benchmark. It assembles
// the oiraidd daemon in-process from the same public constructors and
// default settings, drives it over loopback HTTP through server.Client
// with closed-loop clients, checks every response against a version
// oracle, and prints one metric per line followed by a JSON summary.
//
// Usage:
//
//	perfbench --workload object-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the summary holds the end-to-end metrics. With --trace 1
// the workload runs twice with one client, untraced and then traced, and
// the summary holds the per-layer metrics plus the tracing overhead. See
// README.md for the workloads and the meaning of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are further numbers printed by name before the metrics:
	// sample counts and the failure fraction.
	notes map[string]metric
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses the arguments, runs the workload, and prints one line per
// metric and then the JSON summary to stdout. It returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: object-mixed, degraded-rebuild or cluster-rw")
	seed := fs.Int64("seed", 1, "seed for inputs and the failure schedule")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced single-client run reporting per-layer metrics")
	dir := fs.String("dir", ".perfbench", "directory for the stacks' metadata files and the traced run's span files")
	smoke := fs.Bool("smoke", false, "shrink sizes and the failure schedule for a fast functional check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *smoke {
		w = w.smoke()
	}
	window := time.Duration(*seconds * float64(time.Second))

	// The stacks' metadata files live in a directory of this run's own,
	// deleted when the run ends.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*dir, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	steal0, total0 := cpuSteal()
	var sum summary
	if *trace == 1 {
		spans := filepath.Join(*dir, fmt.Sprintf("%s-%d.spans.tsv.gz", w.name, *seed))
		sum, err = runTraced(w, *seed, window, runDir, spans)
	} else {
		sum, err = runMeasured(w, *seed, window, runDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		if sum.notes == nil {
			sum.notes = map[string]metric{}
		}
		sum.notes["host_steal_frac"] = metric{float64(steal1-steal0) / float64(total1-total0), "fraction"}
	}
	for _, group := range []map[string]metric{sum.notes, sum.Metrics} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// cpuSteal reads the machine's CPU time stolen by the hypervisor and its
// total CPU time, in clock ticks, from /proc/stat; zeros when it cannot.
// The steal over a run shows how much of its spread the host caused.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
