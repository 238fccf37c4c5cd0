package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// peakRSSMB is the high-water mark of this process's resident set (VmHWM),
// in MB. Where /proc does not offer it, the memory the Go runtime has
// obtained from the system stands in.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
