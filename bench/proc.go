package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux this runs on.
const clockTick = 100

// procSample is what the harness reads about the server from outside.
type procSample struct {
	UserMs, SysMs float64 // cumulative CPU
	CtxSw         float64 // voluntary + involuntary context switches
	HWMKB         float64 // peak resident set (VmHWM)
	WriteKB       float64 // bytes sent to the storage layer
	SysCW         float64 // write syscalls
}

// parseStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) is parenthesised and may
// itself hold spaces and parentheses, so fields are counted from the last ')'.
func parseStat(line string) (userMs, sysMs float64, err error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("stat: no command field in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("stat: %d fields after command, want at least 13", len(f))
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("stat: utime: %w", err)
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("stat: stime: %w", err)
	}
	return ut * 1000 / clockTick, st * 1000 / clockTick, nil
}

// parseKeyed reads "key: value [unit]" lines (the /proc/<pid>/status and
// /proc/<pid>/io format) into a map of numeric values.
func parseKeyed(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[strings.TrimSpace(key)] = v
		}
	}
	return out
}

// readProc samples one process. The io file is unreadable in some sandboxes;
// its counters then stay zero rather than failing the run.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	if s.UserMs, s.SysMs, err = parseStat(string(stat)); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	s.HWMKB = parseKeyed(string(status))["VmHWM"]
	// Context switches are kept per thread; the process's are their sum.
	tasks, _ := filepath.Glob(dir + "task/*/status")
	for _, t := range tasks {
		if raw, err := os.ReadFile(t); err == nil { // a thread may exit between glob and read
			st := parseKeyed(string(raw))
			s.CtxSw += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
		}
	}
	if io, err := os.ReadFile(dir + "io"); err == nil {
		kv := parseKeyed(string(io))
		s.WriteKB = kv["write_bytes"] / 1024
		s.SysCW = kv["syscw"]
	}
	return s, nil
}

// hostCPU is the machine-wide CPU accounting of /proc/stat's first line.
type hostCPU struct {
	totalMs, busyMs, stealMs float64
}

// parseHostCPU reads the aggregate "cpu" line: user nice system idle iowait
// irq softirq steal (guest time is already inside user).
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: no aggregate cpu line in %q", line)
	}
	var v [8]float64
	for i := range v {
		x, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
		v[i] = x * 1000 / clockTick
	}
	var h hostCPU
	for _, x := range v {
		h.totalMs += x
	}
	h.stealMs = v[7]
	h.busyMs = h.totalMs - v[3] - v[4] - v[7] // not idle, not iowait, not stolen
	return h, nil
}

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	h, _ := parseHostCPU(string(raw))
	return h
}
