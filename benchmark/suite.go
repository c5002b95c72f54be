package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteRun is one child process's result.
type suiteRun struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Result   result `json:"result"`
}

// runChild runs one workload in a process of its own, so that its peak
// resident set is its own, forwards what it prints and returns its result
// line. A child that exits non-zero after printing a result (a golden
// mismatch) still returns the result, with ok false.
func runChild(workload string, seed int64, seconds float64, smoke bool, trace int) (res result, ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, false, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--smoke="+strconv.FormatBool(smoke))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", l)
	}
	if err := json.Unmarshal(last, &res); err != nil || res.Metrics == nil {
		fmt.Printf("%s\n", last)
		return result{}, false, fmt.Errorf("%s: no result line (%v)", workload, runErr)
	}
	return res, runErr == nil, nil
}

// runSuite runs every workload untraced and traced and writes
// out/results.json. With aa it runs both sets twice and compares them.
func runSuite(seed int64, seconds float64, smoke, aa bool) int {
	fp := takeFingerprint(seed)
	sets := 1
	if aa {
		sets = 2
	}
	code := 0
	var runs []suiteRun
	byKey := map[string][]result{} // "workload/mode" -> one result per set
	for set := 0; set < sets; set++ {
		for trace, mode := range []string{"untraced", "traced"} {
			for _, w := range workloadNames {
				res, ok, err := runChild(w, seed, seconds, smoke, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !ok {
					code = 1
				}
				runs = append(runs, suiteRun{w, mode, res})
				byKey[w+"/"+mode] = append(byKey[w+"/"+mode], res)
			}
		}
	}
	fp.LoadEnd = loadAvg1()
	record := struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Runs        []suiteRun  `json:"runs"`
	}{fp, runs}
	if err := writeJSON(filepath.Join("out", "results.json"), record); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if aa && !compareSets(fp, byKey) {
		code = 1
	}
	return code
}

// compareSets prints the A/A table in markdown: every end-to-end metric of
// both untraced sets against its bound, and every exact per-layer counter
// of both traced sets, which must be equal.
func compareSets(fp fingerprint, byKey map[string][]result) bool {
	ok := true
	fmt.Printf("\n# A/A: two runs of the same code\n\n")
	fmt.Printf("%s, %d CPUs, %s, git %s, seed %d, load average %.2f -> %.2f, noisy: %v\n\n",
		fp.CPUModel, fp.NProc, fp.GoVersion, fp.GitRev, fp.Seed, fp.LoadStart, fp.LoadEnd, fp.Noisy)
	fmt.Println("| workload | metric | unit | run A | run B | difference | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	row := func(w string, d metricDecl, a, b, bound float64) {
		diff := math.Abs(b-a) / a
		verdict := "ok"
		if diff > bound {
			verdict, ok = "EXCEEDS", false
		}
		fmt.Printf("| %s | %s | %s | %.8g | %.8g | %.2f %% | %.0f %% | %s |\n",
			w, d.Name, d.Unit, a, b, 100*diff, 100*bound, verdict)
	}
	for _, w := range workloadNames {
		r := byKey[w+"/untraced"]
		for _, d := range endToEnd {
			row(w, d, r[0].Metrics[d.Name].Value, r[1].Metrics[d.Name].Value, d.Bound)
		}
	}
	for _, w := range workloadNames {
		r := byKey[w+"/traced"]
		for _, d := range perLayer {
			if d.Exact {
				row(w, d, r[0].Metrics[d.Name].Value, r[1].Metrics[d.Name].Value, 0)
			}
		}
	}
	return ok
}
