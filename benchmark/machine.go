package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint says where and on what a result was taken. Noisy marks a
// run that started on a machine already busy.
type fingerprint struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LLCBytes   int64   `json:"llc_bytes"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	Noisy      bool    `json:"noisy"`
	Seed       int64   `json:"seed"`
}

func takeFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		LoadStart:  loadAvg1(),
		Seed:       seed,
	}
	fp.Noisy = fp.LoadStart > 0.5*float64(fp.NProc)
	if fp.Noisy {
		fmt.Printf("noisy: load average %.2f exceeds half of %d CPUs before the run\n", fp.LoadStart, fp.NProc)
	}
	return fp
}

// gitRev is "unknown" outside a git checkout, which is where the
// acceptance driver runs the benchmark.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes is the size of cpu0's highest-level cache, or 32 MiB when
// sysfs does not say.
func llcBytes() int64 {
	const fallback = 32 << 20
	var best int64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(buf))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		return fallback
	}
	return best
}

func loadAvg1() float64 {
	buf, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(buf))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// peakRSSMiB reads this process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
