package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts records what a result depends on beyond the code: the CPU,
// how many cores the process may use, the Go toolchain, and the filesystem
// the stores (and their fsyncs) live on.
func hostFacts(dir string) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"store_fs":   filesystemOf(dir),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf returns the type of the filesystem mounted deepest above
// dir, from /proc/self/mountinfo.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// Fields: id parent major:minor root mountpoint options... - fstype source super
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, postFields := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(postFields) < 1 {
			continue
		}
		mp := fields[4]
		inside := abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")
		if inside && len(mp) > best {
			best, fs = len(mp), postFields[0]
		}
	}
	return fs
}

// cpuTimes reads the aggregate CPU line of /proc/stat: total and steal
// ticks. Steal is time the hypervisor gave this machine's CPUs to others.
func cpuTimes() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal (guest time is
	// already counted in user and nice).
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealPct returns the share of CPU time stolen since the given reading.
func stealPct(total0, steal0 uint64) float64 {
	total, steal := cpuTimes()
	if total <= total0 {
		return 0
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}
