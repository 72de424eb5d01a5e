package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machineContext is printed with every run so that a run on a slow or
// contended host can be told apart next to its numbers.
type machineContext struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StealTicks is the host's steal time over the run, in USER_HZ
	// ticks summed over all CPUs (/proc/stat).
	StealTicks int64 `json:"steal_ticks"`
	// RefRateStart and RefRateEnd are the rates of a fixed reference
	// loop, in million steps per second, at the start and end of the
	// run.
	RefRateStart float64 `json:"ref_rate_start"`
	RefRateEnd   float64 `json:"ref_rate_end"`
	// Samples is the number of jobs attempted in the reported phase.
	Samples int `json:"samples"`
	// Digest hashes (instance, seed, iterations) of the first jobs whose
	// iteration count the seed fixes; it repeats exactly for one seed.
	Digest string `json:"digest"`

	steal0 int64
}

func startContext() *machineContext {
	return &machineContext{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		RefRateStart: refRate(),
		steal0:       stealTicks(),
	}
}

// finish closes the context at the end of the run.
func (m *machineContext) finish(ph *phase) {
	m.RefRateEnd = refRate()
	m.StealTicks = stealTicks() - m.steal0
	m.Samples = len(ph.jobs)
	m.Digest = ph.digest()
}

var refSink uint64

// refRate times a fixed xorshift loop and returns its rate in million
// steps per second. It depends on nothing but the core it runs on.
func refRate() float64 {
	const steps = 1 << 24
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0)
	refSink = x
	return steps / el.Seconds() / 1e6
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the steal column of the aggregate cpu line of
// /proc/stat, or -1 when it cannot.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}
