package faults

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSetSpellingAndModes(t *testing.T) {
	defer Reset()
	if err := Set("worker-panic=first2,shard-stall=every3,disk-error"); err != nil {
		t.Fatal(err)
	}
	// first2: exactly the first two calls fire.
	got := []bool{Should(WorkerPanic), Should(WorkerPanic), Should(WorkerPanic)}
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("first2 fired %v, want true,true,false", got)
	}
	if n := Fired(WorkerPanic); n != 2 {
		t.Fatalf("fired count %d, want 2", n)
	}
	// every3: calls 3, 6, ... fire.
	var fires []int
	for i := 1; i <= 7; i++ {
		if Should(ShardStall) {
			fires = append(fires, i)
		}
	}
	if len(fires) != 2 || fires[0] != 3 || fires[1] != 6 {
		t.Fatalf("every3 fired at %v, want [3 6]", fires)
	}
	// bare point: always.
	for i := 0; i < 3; i++ {
		if !Should(DiskError) {
			t.Fatal("always-mode point did not fire")
		}
	}
	if !Active(DiskError) || Active(CalibrationSkew) {
		t.Fatal("Active does not reflect the armed set")
	}
	if s := Summary(); !strings.Contains(s, "disk-error") || !strings.Contains(s, "worker-panic=first2") {
		t.Fatalf("summary %q missing armed points", s)
	}
}

func TestSetRejectsBadSpellings(t *testing.T) {
	defer Reset()
	for _, spec := range []string{
		"no-such-point",
		"worker-panic=p1.5",
		"worker-panic=every0",
		"worker-panic=sometimes",
	} {
		if err := Set(spec); err == nil {
			t.Fatalf("Set(%q) accepted", spec)
		}
	}
	// A rejected Set must leave the registry disarmed.
	if Should(WorkerPanic) {
		t.Fatal("failed Set left a point armed")
	}
}

func TestProbabilityModeIsDeterministicAcrossResets(t *testing.T) {
	defer Reset()
	roll := func() []bool {
		if err := Set("slow-compute=p0.5"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 32)
		for i := range out {
			out[i] = Should(SlowCompute)
		}
		return out
	}
	a, b := roll(), roll()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("p-mode diverged at call %d across identical Set sequences", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p0.5 fired %d/%d times; the mode is degenerate", fired, len(a))
	}
}

// TestProbabilityStreamsArePerPoint: a pX point's firing sequence depends only
// on its own calls, so consulting another armed point in between — net-delay
// on the same request path as net-drop, say — does not shift which calls fire.
func TestProbabilityStreamsArePerPoint(t *testing.T) {
	defer Reset()
	roll := func(interleave bool) []bool {
		if err := Set("net-drop=p0.5,net-delay=p0.5"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = Should(NetDrop)
			if interleave {
				Should(NetDelay)
			}
		}
		return out
	}
	alone, interleaved := roll(false), roll(true)
	for i := range alone {
		if alone[i] != interleaved[i] {
			t.Fatalf("net-drop call %d: fired=%v alone, %v with net-delay interleaved", i, alone[i], interleaved[i])
		}
	}
}

func TestDisarmedFastPathCostsNothingAndFiresNothing(t *testing.T) {
	Reset()
	for _, p := range Points() {
		if Should(p) || Active(p) {
			t.Fatalf("disarmed point %s fired", p)
		}
	}
	if err := ErrOn(DiskError); err != nil {
		t.Fatalf("disarmed ErrOn returned %v", err)
	}
	if d := Delay(SlowCompute); d != 0 {
		t.Fatalf("disarmed Delay returned %v", d)
	}
	if Stall(ShardStall, nil) {
		t.Fatal("disarmed Stall blocked")
	}
}

func TestStallReleasedByDisable(t *testing.T) {
	defer Reset()
	if err := Enable(ShardStall, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() { done <- Stall(ShardStall, nil) }()
	// Stall takes its release channel in the critical section that counts
	// the firing, so once the count shows, Disable must free it.
	for Fired(ShardStall) != 1 {
		runtime.Gosched()
	}
	Disable(ShardStall)
	if !<-done { // hangs here if Disable does not release the stall
		t.Error("armed Stall did not stall")
	}
}

// TestStallRacesDisarm disarms a point while a Stall on it is firing, with no
// ordering between the two: whether the disarm lands before the firing, in
// the middle of it or after, the site must return.
func TestStallRacesDisarm(t *testing.T) {
	defer Reset()
	for i := 0; i < 200; i++ {
		if err := Enable(ShardStall, ""); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			Stall(ShardStall, nil)
			close(done)
		}()
		if i%2 == 0 {
			Disable(ShardStall)
		} else {
			Reset()
		}
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: Stall still blocked after its point was disarmed", i)
		}
	}
}

func TestStallReleasedByCancel(t *testing.T) {
	defer Reset()
	if err := Enable(ShardStall, ""); err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	done := make(chan struct{})
	go func() {
		Stall(ShardStall, cancel)
		close(done)
	}()
	close(cancel)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Stall did not return")
	}
}

func TestCountsSurviveDisable(t *testing.T) {
	defer Reset()
	if err := Enable(WorkerPanic, "first1"); err != nil {
		t.Fatal(err)
	}
	Should(WorkerPanic)
	Disable(WorkerPanic)
	if c := Counts(); c[WorkerPanic] != 1 {
		t.Fatalf("counts after disable %v, want worker-panic=1", c)
	}
	Reset()
	if c := Counts(); len(c) != 0 {
		t.Fatalf("counts after reset %v, want empty", c)
	}
}

// The fleet transport points arm through the same MS_FAULTS spelling as the
// engine points, and net-delay resolves to its own tunable duration.
func TestNetworkFaultPointsSpelling(t *testing.T) {
	defer Reset()
	if err := Set("net-drop=on,net-delay=on,replica-down=on"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{NetDrop, NetDelay, ReplicaDown} {
		if !Active(p) || !Should(p) {
			t.Fatalf("point %s did not arm", p)
		}
	}
	if d := Delay(NetDelay); d != NetDelayDuration {
		t.Fatalf("Delay(NetDelay) = %v, want NetDelayDuration %v", d, NetDelayDuration)
	}
}

// TestSetIsAllOrNothing: a spec whose later pair is bad must not leave its
// earlier pairs armed — otherwise init reports "ignoring MS_FAULTS" while
// the points before the typo fire anyway.
func TestSetIsAllOrNothing(t *testing.T) {
	defer Reset()
	if err := Set("worker-panic=on,net-drop=bogus"); err == nil {
		t.Fatal("Set accepted a bad mode")
	}
	if Active(WorkerPanic) || Should(WorkerPanic) {
		t.Fatal("rejected Set left worker-panic armed")
	}
	if s := Summary(); s != "" {
		t.Fatalf("rejected Set left %q armed", s)
	}
}

// TestSetRejectsNaNProbability: NaN fails both p < 0 and p > 1, so a range
// check spelled that way lets it through.
func TestSetRejectsNaNProbability(t *testing.T) {
	defer Reset()
	for _, spec := range []string{"net-drop=pNaN", "net-drop=pnan", "net-drop=p+Inf"} {
		if err := Set(spec); err == nil {
			t.Errorf("Set(%q) accepted", spec)
		}
		if Active(NetDrop) {
			t.Errorf("Set(%q) left net-drop armed", spec)
		}
	}
}

// FuzzSet: Set never panics, and either it fails and every point is
// disarmed, or it succeeds and exactly the points the spec names are armed.
func FuzzSet(f *testing.F) {
	for _, seed := range []string{
		"", "worker-panic", "worker-panic=p0.1,shard-stall=first2,disk-error",
		"net-drop=pNaN", "worker-panic=on,net-drop=bogus", " slow-compute = every3 ,,",
		"=on", "replica-down=first0", "calibration-skew=p1,calibration-skew=on",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		defer Reset()
		err := Set(spec)
		named := map[Point]bool{}
		if err == nil {
			for _, pair := range strings.Split(spec, ",") {
				if pair = strings.TrimSpace(pair); pair != "" {
					name, _, _ := strings.Cut(pair, "=")
					named[Point(strings.TrimSpace(name))] = true
				}
			}
		}
		for _, p := range Points() {
			if Active(p) != named[p] {
				t.Fatalf("Set(%q) err=%v: %s armed=%v, named=%v", spec, err, p, Active(p), named[p])
			}
		}
		_ = Summary()
	})
}
