package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time read of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
}

// readUsage samples wall time, process CPU (getrusage) and cumulative heap
// allocation (runtime/metrics, which unlike ReadMemStats does not stop the
// world).
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM) to
// the current RSS, so a later peak read covers only what follows. It
// reports false where /proc/self/clear_refs is not writable; the peak then
// includes set-up.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.WriteString("5")
	cerr := f.Close()
	return werr == nil && cerr == nil
}

// peakRSSBytes reads VmHWM from /proc/self/status, falling back to
// getrusage's lifetime maximum.
func peakRSSBytes() int64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) == 2 && fields[1] == "kB" {
					if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss << 10
}
