package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, shrunk, with the oracle on, in
// the untraced and the traced mode, and checks that the run is correct
// and prints exactly the metrics BENCHMARK.json names. Every workload
// BENCHMARK.json names must exist; degraded-rebuild exists without being
// named there.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %s, which the benchmark lacks", wl.Name)
		}
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.6", "--trace", trace, "--smoke", "--dir", t.TempDir()}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit code %d", code)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("run not correct: %+v", sum)
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, BENCHMARK.json names %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := sum.Metrics[m.Name]; !ok {
						t.Errorf("summary lacks %s", m.Name)
					}
					if !strings.Contains(out.String(), m.Name+" ") {
						t.Errorf("%s is not printed by name", m.Name)
					}
				}
			})
		}
	}
}

// TestQuiet checks that quiet leaves out the samples that overlapped a
// sampling interval with more steal than the least-stolen quarter of the
// samples saw, and that without steal it keeps them all.
func TestQuiet(t *testing.T) {
	// Intervals [0,100) [100,200) [200,300) with 0, 3 and 0 steal ticks.
	samples := []stealSample{{0, 10}, {100, 10}, {200, 13}, {300, 13}}
	for _, c := range []struct {
		start, end, want int64
	}{
		{10, 90, 0}, {10, 100, 0}, {90, 110, 3}, {150, 160, 3}, {210, 250, 0}, {250, 301, math.MaxInt64},
	} {
		if got := stolenTicks(samples, c.start, c.end); got != c.want {
			t.Errorf("stolenTicks(%d, %d) = %d, want %d", c.start, c.end, got, c.want)
		}
	}
	var xs []tailSample
	for i := 1; i <= 100; i++ {
		stolen := int64(0)
		if i > 50 {
			stolen = 2 // the slow half ran under steal
		}
		xs = append(xs, tailSample{float64(i), stolen})
	}
	if q := quiet(xs); len(q) != 50 || percentile(q, 0.99) != 50 {
		t.Errorf("quiet with a stolen half kept %d samples, p99 %v; want 50, p99 50", len(q), percentile(q, 0.99))
	}
	for i := range xs {
		xs[i].stolen = 0
	}
	if q := quiet(xs); len(q) != 100 || percentile(q, 0.99) != 99 {
		t.Errorf("quiet without steal kept %d samples, p99 %v; want 100, p99 99", len(q), percentile(q, 0.99))
	}
	// Up to 250 the quiet intervals are [0,100) and [200,250): a quarter
	// of the time or more at no steal.
	if limit, span := quietSpan(samples, 250); limit != 0 || span != 150 {
		t.Errorf("quietSpan(250) = %d, %v; want 0, 150", limit, span)
	}
	// Three stolen ticks in the one interval up to 100: it has to be let in.
	if limit, span := quietSpan([]stealSample{{0, 0}, {100, 3}}, 100); limit != 3 || span != 100 {
		t.Errorf("quietSpan over one stolen interval = %d, %v; want 3, 100", limit, span)
	}
}
