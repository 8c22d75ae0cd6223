package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// A virtual machine's vCPUs lose time to the hypervisor whenever the host
// runs something else on their physical CPUs; Linux counts it per CPU as
// steal time in /proc/stat. On the host this benchmark was sized on (2
// vCPUs shared with other tenants) steal took up to 30% of the vCPUs'
// busy time in a run, and plain seconds moved with it.
// Every reported time is therefore the part of the wall time the vCPUs
// kept: wall seconds times one minus the steal share. The share is each
// vCPU's stolen fraction of its time, averaged with the vCPUs' busy time
// as weights: steal that lands on an idle vCPU delays nothing the
// benchmark does. Without steal the kept time equals the wall time.

// cpuTimes are one vCPU's /proc/stat counters, in clock ticks.
type cpuTimes struct {
	busy, idle, steal float64
}

// readCPUTimes reads every vCPU's counters from /proc/stat.
func readCPUTimes() ([]cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, fmt.Errorf("steal time: %w", err)
	}
	var cpus []cpuTimes
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		// cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || f[0] == "cpu" || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		var v [8]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
				return nil, fmt.Errorf("steal time: %w", err)
			}
		}
		cpus = append(cpus, cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]})
	}
	if len(cpus) == 0 {
		return nil, errors.New("steal time: no per-CPU lines in /proc/stat")
	}
	return cpus, nil
}

// stealMark is a point in time with the vCPU counters read at it.
type stealMark struct {
	at   time.Time
	cpus []cpuTimes // nil if the read failed
}

// markSteal takes a stealMark now. A failed read, which the check in run
// rules out, makes kept return NaN, which printResult refuses.
func markSteal() stealMark {
	cpus, _ := readCPUTimes()
	return stealMark{at: time.Now(), cpus: cpus}
}

// kept returns the wall seconds since m and the share of them the vCPUs
// kept.
func (m stealMark) kept() (wall, share float64) {
	now := markSteal()
	return now.at.Sub(m.at).Seconds(), keptShare(m.cpus, now.cpus)
}

// keptShare is one minus the busy-weighted mean of each vCPU's stolen
// fraction of its time between the counters before and after; NaN if
// either read failed.
func keptShare(before, after []cpuTimes) float64 {
	if before == nil || len(after) != len(before) {
		return math.NaN()
	}
	var stolen, busy float64
	for i, c := range after {
		d := cpuTimes{c.busy - before[i].busy, c.idle - before[i].idle, c.steal - before[i].steal}
		if total := d.busy + d.idle + d.steal; total > 0 {
			stolen += d.steal / total * d.busy
			busy += d.busy
		}
	}
	if busy == 0 {
		return 1
	}
	return 1 - stolen/busy
}
