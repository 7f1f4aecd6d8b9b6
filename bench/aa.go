package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA runs the whole suite (or only the named workload) as pairs of runs
// of this same binary, side A and side B, alternating which side goes
// first, pair p on seed base+p. It
// prints, per workload and end-to-end metric, both medians, how much worse
// B's is than A's, each side's run-to-run spread (interquartile range over
// median, as the acceptance procedure computes it) and the bound. The two
// sides are the same program, so any difference is noise: the exit code is
// 1 when a difference exceeds half its bound or a spread exceeds its
// bound, and such a metric does not belong in the end-to-end list.
func runAA(pairs int, only string, baseSeed int64, seconds int, scaleName string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// results[workload][metric][side] are the values of the runs so far.
	results := make(map[string]map[string]*[2][]float64)
	suite := workloadDefs
	if only != "" {
		suite = nil
		for _, w := range workloadDefs {
			if w.name == only {
				suite = append(suite, w)
			}
		}
	}
	for p := 0; p < pairs; p++ {
		for _, w := range suite {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2
				rep, err := runChild(exe, w.name, baseSeed+int64(p), seconds, scaleName)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: pair %d side %c %s: %v\n", p, 'A'+side, w.name, err)
					return 2
				}
				if results[w.name] == nil {
					results[w.name] = make(map[string]*[2][]float64)
				}
				for name, mv := range rep.Metrics {
					if results[w.name][name] == nil {
						results[w.name][name] = new([2][]float64)
					}
					results[w.name][name][side] = append(results[w.name][name][side], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "pair %d side %c %s done\n", p, 'A'+side, w.name)
			}
		}
	}
	bad := 0
	fmt.Printf("%-12s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "IQR A", "IQR B", "bound")
	for _, w := range suite {
		for _, m := range endToEnd {
			v := results[w.name][m.name]
			a, b := median(v[0]), median(v[1])
			worse := (b - a) / a
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb := spreadPct(v[0])/100, spreadPct(v[1])/100
			flag := ""
			if worse > m.bound/2 || -worse > m.bound/2 || (m.name != "setup_s" && max(sa, sb) > m.bound) {
				flag = "  <-- outside the noise budget"
				bad++
			}
			fmt.Printf("%-12s %-16s %12.5g %12.5g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w.name, m.name, a, b, 100*worse, 100*sa, 100*sb, 100*m.bound, flag)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runChild runs one untraced workload run in a child process and parses
// the report on the last line of its standard output.
func runChild(exe, workload string, seed int64, seconds int, scaleName string) (report, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-scale", scaleName, "-trace", "0")
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, err
	}
	if !rep.Correct {
		return rep, fmt.Errorf("run reported %d failed of %d", rep.Failed, rep.Attempted)
	}
	return rep, nil
}
