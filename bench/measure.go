package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far. CPU time per
// operation is the least noisy cost number on a shared host: it does not
// count the time a neighbour held the core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostAccount is what the kernel charged the process so far.
type hostAccount struct {
	UserS       float64 `json:"user_s"`
	SysS        float64 `json:"sys_s"`
	MinorFaults int64   `json:"minor_faults"`
	Voluntary   int64   `json:"voluntary_switches"`
	Involuntary int64   `json:"involuntary_switches"`
}

func readHostAccount() hostAccount {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return hostAccount{}
	}
	return hostAccount{
		UserS: float64(ru.Utime.Nano()) / 1e9, SysS: float64(ru.Stime.Nano()) / 1e9,
		MinorFaults: ru.Minflt, Voluntary: ru.Nvcsw, Involuntary: ru.Nivcsw,
	}
}

// peakRSSMB is ru_maxrss (KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settledRSSMB is the resident set once garbage is collected and returned to
// the OS: the memory the process holds on to — model, packs, arenas at their
// high water, mapped checkpoints. Unlike the peak it does not depend on where
// in a GC cycle the heap happened to be, so it repeats from run to run.
// It reads /proc/self/statm and is 0 where that does not exist.
func settledRSSMB() float64 {
	// Two collections: what a finalizer keeps alive (connections and
	// listeners of a closed set-up, and through them its server's arenas)
	// goes only in the cycle after the finalizer ran.
	runtime.GC()
	debug.FreeOSMemory() // collects again, then returns free spans
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// mallocs reads the heap counters the allocs-per-operation metrics are
// deltas of. ReadMemStats stops the world, so it is called only at the
// boundaries of a stretch.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// quantile is the nearest-rank q-quantile of v (which it sorts in place);
// zero for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rateTag is the metric-name suffix of a slice rate: r025 … r100.
func rateTag(r float64) string { return fmt.Sprintf("r%03d", int(r*100)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// segment is what one timed stretch of a workload observed: the raw counts
// and samples every end-to-end metric is computed from, the same way for all
// six workloads, plus the per-layer numbers a traced stretch gathered.
type segment struct {
	// attempted operations; answered ones came back without error; ok ones
	// were answered within the latency limit (every answered one, where the
	// workload has no limit); refused ones were shed by admission control,
	// which is an answer the system is designed to give under overload: they
	// miss the limit but are not failures.
	attempted, answered, ok, refused int64
	// samplesPerOp converts operations to model samples (8 per infer_vgg
	// call, 32 per train_vgg step, 1 per query).
	samplesPerOp int
	// latMs holds one latency per answered operation.
	latMs []float64
	// rateSum adds the slice rate of every answered operation.
	rateSum   float64
	wall, cpu time.Duration
	// mallocs and allocBytes are the process's heap allocations over the
	// stretch: counts that repeat from run to run where timings do not.
	mallocs, allocBytes uint64
	// layer holds per-layer metrics by name: the whole set after a traced
	// stretch, a layer's public call timed whole after an untraced one.
	layer map[string]float64
	// invalid is set when the load generator fell behind its schedule.
	invalid string
}

func newSegment(samplesPerOp int) *segment {
	return &segment{samplesPerOp: samplesPerOp, layer: map[string]float64{}}
}

// timing is the stretch's own timings, by their run.* metric names.
func (s *segment) timing() map[string]float64 {
	lat := append([]float64(nil), s.latMs...)
	return map[string]float64{
		"run.cpu_us_per_query": s.cpuUsPerSample(),
		"run.goodput_qps":      ratio(float64(s.ok*int64(s.samplesPerOp)), s.wall.Seconds()),
		"run.mean_rate":        ratio(s.rateSum, float64(s.answered)),
		"run.lat_ms_p50":       quantile(lat, 0.50),
		"run.lat_ms_p99":       quantile(lat, 0.99),
	}
}

// cpuUsPerSample is CPU time per answered model sample.
func (s *segment) cpuUsPerSample() float64 {
	return ratio(us(s.cpu), float64(s.answered*int64(s.samplesPerOp)))
}
