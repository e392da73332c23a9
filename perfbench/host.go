package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"

	"djstar/internal/hardware"
)

// hostProbe fingerprints the host and measures the CPU steal share
// across the run from /proc/stat deltas.
type hostProbe struct {
	steal0, total0 uint64
	// affinity is read at start: pinned worker pools later bind the
	// threads they run on, the main thread included.
	affinity string
}

func newHostProbe() *hostProbe {
	h := &hostProbe{affinity: procField("/proc/self/status", "Cpus_allowed_list")}
	h.steal0, h.total0 = readCPUStat()
	return h
}

// hostFingerprint is printed with every result.
type hostFingerprint struct {
	NProc         int     `json:"nproc"`
	Affinity      string  `json:"affinity"`
	PinningOK     bool    `json:"pinning_supported"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	StealFraction float64 `json:"steal_frac"`
}

// note appends the fingerprint, with the steal share since the probe was
// created, to the report.
func (h *hostProbe) note(r *report) {
	steal1, total1 := readCPUStat()
	fp := hostFingerprint{
		NProc:      runtime.NumCPU(),
		Affinity:   h.affinity,
		PinningOK:  hardware.PinningSupported(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if total1 > h.total0 {
		fp.StealFraction = float64(steal1-h.steal0) / float64(total1-h.total0)
	}
	b, _ := json.Marshal(fp) // plain struct of strings and numbers: cannot fail
	r.notef("host %s", b)
}

// readCPUStat returns the aggregate steal and total jiffies from the
// first line of /proc/stat (zeros where unavailable).
func readCPUStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procField returns the value of the first "key: value" line of a /proc
// file ("unknown" when absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
