package workload

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAppsComplete(t *testing.T) {
	apps := Apps()
	if len(apps) != 8 {
		t.Fatalf("suite has %d apps, want 8", len(apps))
	}
	want := map[string]bool{
		"gzip": true, "mcf": true, "crafty": true, "twolf": true,
		"mgrid": true, "applu": true, "mesa": true, "equake": true,
	}
	for _, a := range apps {
		if !want[a] {
			t.Errorf("unexpected app %q", a)
		}
	}
}

func TestIsFloatingPoint(t *testing.T) {
	for app, fp := range map[string]bool{
		"gzip": false, "mcf": false, "crafty": false, "twolf": false,
		"mgrid": true, "applu": true, "mesa": true, "equake": true,
	} {
		if IsFloatingPoint(app) != fp {
			t.Errorf("IsFloatingPoint(%s) = %v, want %v", app, !fp, fp)
		}
	}
	if IsFloatingPoint("nonexistent") {
		t.Error("unknown app reported as FP")
	}
}

func TestGetDeterministic(t *testing.T) {
	a := Get("gzip", 5000)
	b := Get("gzip", 5000)
	if a != b {
		t.Fatal("cache did not return the identical trace object")
	}
	// Distinct lengths are distinct traces but share a prefix property:
	// both must be reproducible. Force regeneration via the unexported
	// generator to verify bit-equality without the cache.
	c := generate(profiles["gzip"], 5000)
	if len(c.Insts) != len(a.Insts) {
		t.Fatalf("regenerated length %d != %d", len(c.Insts), len(a.Insts))
	}
	for i := range a.Insts {
		if a.Insts[i] != c.Insts[i] {
			t.Fatalf("regenerated trace differs at %d: %+v vs %+v", i, a.Insts[i], c.Insts[i])
		}
	}
}

func TestGetPanicsOnUnknownApp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown app did not panic")
		}
	}()
	Get("specint95", 1000)
}

func TestLookupRejectsBadInput(t *testing.T) {
	if _, err := Lookup("specint95", 1000); err == nil || !strings.Contains(err.Error(), `"specint95"`) {
		t.Fatalf("unknown app: err %v, want one naming the app", err)
	}
	if _, err := Lookup("mcf", -1); err == nil {
		t.Fatal("negative length accepted")
	}
	tr, err := Lookup("mcf", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tr != Get("mcf", 1000) {
		t.Fatal("Lookup and Get returned different cached traces")
	}
}

func TestTraceLength(t *testing.T) {
	for _, n := range []int{100, 1234, 20000} {
		tr := Get("mesa", n)
		if tr.Len() != n {
			t.Fatalf("requested %d instructions, got %d", n, tr.Len())
		}
	}
}

func TestDependenciesPointBackwards(t *testing.T) {
	for _, app := range Apps() {
		tr := Get(app, 8000)
		for i, in := range tr.Insts {
			if in.Src1 < 0 || in.Src2 < 0 {
				t.Fatalf("%s[%d]: negative dependency distance", app, i)
			}
			if int(in.Src1) > i || int(in.Src2) > i {
				t.Fatalf("%s[%d]: dependency reaches before trace start", app, i)
			}
		}
	}
}

func TestMemoryInstructionsHaveAddresses(t *testing.T) {
	tr := Get("mcf", 8000)
	for i, in := range tr.Insts {
		if in.Class.IsMem() && in.Addr == 0 {
			t.Fatalf("mem instruction %d has zero address", i)
		}
		if !in.Class.IsMem() && in.Addr != 0 {
			t.Fatalf("non-mem instruction %d has address %#x", i, in.Addr)
		}
	}
}

func TestBranchesHaveTargets(t *testing.T) {
	tr := Get("crafty", 8000)
	branches := 0
	for i, in := range tr.Insts {
		if in.Class == Branch {
			branches++
			if in.Target == 0 {
				t.Fatalf("branch %d has no target", i)
			}
		} else if in.Taken {
			t.Fatalf("non-branch %d marked taken", i)
		}
	}
	if branches == 0 {
		t.Fatal("trace has no branches")
	}
}

func TestBlockIDsWithinRange(t *testing.T) {
	tr := Get("twolf", 8000)
	for i, in := range tr.Insts {
		if int(in.Block) >= tr.NumBlocks {
			t.Fatalf("instruction %d: block %d out of %d", i, in.Block, tr.NumBlocks)
		}
	}
}

func TestPCsAreWordAlignedAndInText(t *testing.T) {
	tr := Get("applu", 8000)
	for i, in := range tr.Insts {
		if in.PC%4 != 0 {
			t.Fatalf("instruction %d PC %#x not 4-byte aligned", i, in.PC)
		}
		if in.PC < codeBase {
			t.Fatalf("instruction %d PC %#x below text base", i, in.PC)
		}
	}
}

func TestSummarizeMixMatchesProfileIntent(t *testing.T) {
	// The realized dynamic mix should be in the right ballpark of the
	// profile weights: FP apps have FP work, integer apps do not.
	for _, app := range Apps() {
		s := Get(app, 20000).Summarize()
		if s.Total != 20000 {
			t.Fatalf("%s: total %d", app, s.Total)
		}
		if s.Branches == 0 || s.MemPct < 10 || s.MemPct > 55 {
			t.Fatalf("%s: implausible mix: branches=%d mem=%.1f%%", app, s.Branches, s.MemPct)
		}
		if IsFloatingPoint(app) && s.FPPct < 10 {
			t.Errorf("%s: FP app with only %.1f%% FP work", app, s.FPPct)
		}
		if !IsFloatingPoint(app) && s.FPPct > 1 {
			t.Errorf("%s: integer app with %.1f%% FP work", app, s.FPPct)
		}
	}
}

func TestTakenRateReasonable(t *testing.T) {
	for _, app := range Apps() {
		s := Get(app, 20000).Summarize()
		if s.TakenPct < 20 || s.TakenPct > 97 {
			t.Errorf("%s: taken rate %.1f%% outside plausible range", app, s.TakenPct)
		}
	}
}

func TestSlice(t *testing.T) {
	tr := Get("gzip", 4000)
	s := tr.Slice(1000, 2000)
	if s.Len() != 1000 {
		t.Fatalf("slice length %d", s.Len())
	}
	if &s.Insts[0] != &tr.Insts[1000] {
		t.Fatal("slice does not share storage")
	}
	if s.NumBlocks != tr.NumBlocks {
		t.Fatal("slice lost block count")
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	tr := Get("gzip", 1000)
	for _, c := range [][2]int{{-1, 10}, {0, 1001}, {500, 400}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", c[0], c[1])
				}
			}()
			tr.Slice(c[0], c[1])
		}()
	}
}

func TestAppsAreDistinct(t *testing.T) {
	// Different applications must induce different traces (the studies
	// model them separately).
	a := Get("gzip", 4000)
	b := Get("mcf", 4000)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == b.Insts[i] {
			same++
		}
	}
	if same > len(a.Insts)/10 {
		t.Fatalf("gzip and mcf traces identical at %d/%d positions", same, len(a.Insts))
	}
}

func TestPhasesRecur(t *testing.T) {
	// Phase structure: block IDs in the first and second halves overlap
	// (the phase sequence repeats), which is what SimPoint exploits.
	tr := Get("equake", 24000)
	seen1 := map[uint32]bool{}
	seen2 := map[uint32]bool{}
	for i, in := range tr.Insts {
		if i < tr.Len()/2 {
			seen1[in.Block] = true
		} else {
			seen2[in.Block] = true
		}
	}
	common := 0
	for b := range seen2 {
		if seen1[b] {
			common++
		}
	}
	if common < len(seen2)/2 {
		t.Fatalf("second half shares only %d/%d blocks with first half", common, len(seen2))
	}
}

func TestOpClassProperties(t *testing.T) {
	check := func(c uint8) bool {
		oc := OpClass(c % uint8(numOpClasses))
		if oc.IsFP() && (oc == Load || oc == Store || oc == Branch || oc == IntALU || oc == IntMul) {
			return false
		}
		if oc.IsMem() != (oc == Load || oc == Store) {
			return false
		}
		return oc.String() != ""
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	// The geometric helper's empirical mean should track the requested
	// mean within sampling error.
	rng := newTestRNG()
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += float64(geometricInt(rng, 10))
	}
	mean := sum / float64(n)
	if mean < 8.5 || mean > 11.5 {
		t.Fatalf("geometric mean %v, want ≈10", mean)
	}
}
