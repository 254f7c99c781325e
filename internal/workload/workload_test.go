package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/micro"
)

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range AllClasses() {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
	if _, err := ParseClass("nonsense"); err == nil {
		t.Fatal("ParseClass accepted unknown name")
	}
}

func TestIsMalware(t *testing.T) {
	if Benign.IsMalware() {
		t.Fatal("benign flagged as malware")
	}
	for _, c := range MalwareClasses() {
		if !c.IsMalware() {
			t.Fatalf("%v not flagged as malware", c)
		}
	}
}

func TestPaperSampleCounts(t *testing.T) {
	counts := PaperSampleCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != PaperTotalSamples {
		t.Fatalf("Table 1 total %d, want %d", total, PaperTotalSamples)
	}
	if counts[Trojan] != 1169 || counts[Worm] != 149 {
		t.Fatalf("Table 1 per-class counts wrong: %v", counts)
	}
	// Trojan must be the largest malware family (Figure 3/6 shape).
	for _, c := range MalwareClasses() {
		if c != Trojan && counts[c] >= counts[Trojan] {
			t.Fatalf("%v count %d >= trojan %d", c, counts[c], counts[Trojan])
		}
	}
}

func TestNewSampleAllClassesValid(t *testing.T) {
	// 240,000 draws: about 1 in 12,000 needs its mix trimmed.
	for _, c := range AllClasses() {
		for seed := uint64(0); seed < 40_000; seed++ {
			p, err := NewSample(c, seed)
			if err != nil {
				t.Fatalf("NewSample(%v, %d): %v", c, seed, err)
			}
			if p.Class != c {
				t.Fatalf("sample class %v, want %v", p.Class, c)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("sample %v/%d invalid: %v", c, seed, err)
			}
		}
	}
}

// TestNewSampleTrimsOverfullMix: draws whose jittered load, store and
// branch shares sum past 1 get their branch share trimmed to fit exactly.
func TestNewSampleTrimsOverfullMix(t *testing.T) {
	for _, tc := range []struct {
		class Class
		seed  uint64
		phase int
	}{{Trojan, 3848, 0}, {Worm, 3250, 1}, {Worm, 3648, 2}} {
		p, err := NewSample(tc.class, tc.seed)
		if err != nil {
			t.Fatalf("NewSample(%v, %d): %v", tc.class, tc.seed, err)
		}
		b := p.Phases[tc.phase].Block
		if sum := b.LoadFrac + b.StoreFrac + b.BranchFrac; math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v/%d phase %d: mix sums to %v, want 1", tc.class, tc.seed, tc.phase, sum)
		}
	}
}

func TestNewSampleDeterministic(t *testing.T) {
	a, _ := NewSample(Worm, 7)
	b, _ := NewSample(Worm, 7)
	if a.Name != b.Name || len(a.Phases) != len(b.Phases) {
		t.Fatal("same seed produced structurally different programs")
	}
	for i := range a.Phases {
		if a.Phases[i].Block != b.Phases[i].Block {
			t.Fatalf("phase %d blocks differ across identical seeds", i)
		}
	}
}

func TestNewSampleVariance(t *testing.T) {
	// Different seeds must produce different parameterizations.
	a, _ := NewSample(Virus, 1)
	b, _ := NewSample(Virus, 2)
	same := true
	for i := range a.Phases {
		if i < len(b.Phases) && a.Phases[i].Block != b.Phases[i].Block {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestTrojanDisguisesAsBenign(t *testing.T) {
	p, _ := NewSample(Trojan, 3)
	if !strings.HasPrefix(p.Name, "trojan/benign/") {
		t.Fatalf("trojan name %q does not record its host kernel", p.Name)
	}
	if len(p.Phases) < 4 {
		t.Fatalf("trojan has %d phases, want host + keylog + exfil", len(p.Phases))
	}
	var hasKeylog, hasExfil bool
	for _, ph := range p.Phases {
		switch ph.Name {
		case "keylog":
			hasKeylog = true
		case "exfil":
			hasExfil = true
		}
	}
	if !hasKeylog || !hasExfil {
		t.Fatal("trojan missing payload phases")
	}
}

func TestPhaseMachineAdvance(t *testing.T) {
	p, _ := NewSample(Backdoor, 11)
	visited := make(map[string]bool)
	for i := 0; i < 3000; i++ {
		visited[p.Current().Name] = true
		p.Advance(0.01)
	}
	// All three backdoor phases must eventually be visited.
	for _, name := range []string{"poll", "exec", "exfil"} {
		if !visited[name] {
			t.Fatalf("phase %q never visited in 30s of simulated time", name)
		}
	}
}

func TestBackdoorPollDominates(t *testing.T) {
	p, _ := NewSample(Backdoor, 13)
	dwell := make(map[string]float64)
	const step = 0.001
	for i := 0; i < 200000; i++ {
		dwell[p.Current().Name] += step
		p.Advance(step)
	}
	if dwell["poll"] <= dwell["exec"] || dwell["poll"] <= dwell["exfil"] {
		t.Fatalf("poll does not dominate: %v", dwell)
	}
}

func TestFamilySignatureSeparation(t *testing.T) {
	// Execute one sample of each family on identical machines and check
	// the family-defining event relationships hold in the counts.
	run := func(c Class, seed uint64) micro.Counts {
		p, err := NewSample(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := micro.NewMachine(micro.DefaultConfig(), seed)
		var total micro.Counts
		for w := 0; w < 50; w++ {
			ph := p.Current()
			n := 4000
			counts, err := m.ExecuteBlock(ph.Block, n)
			if err != nil {
				t.Fatal(err)
			}
			total.Add(counts)
			p.Advance(0.01)
		}
		return total
	}

	// Average over a few seeds to avoid single-draw flukes.
	avg := func(c Class) micro.Counts {
		var sum micro.Counts
		for s := uint64(0); s < 5; s++ {
			sum.Add(run(c, 100+s))
		}
		return sum
	}

	worm := avg(Worm)
	rootkit := avg(Rootkit)
	virus := avg(Virus)
	benign := avg(Benign)

	brRate := func(c micro.Counts) float64 {
		return float64(c.BranchInstructions) / float64(c.Instructions)
	}
	if brRate(worm) <= brRate(virus) {
		t.Fatalf("worm branch rate %v not above virus %v", brRate(worm), brRate(virus))
	}
	missRate := func(c micro.Counts) float64 {
		return float64(c.BranchMisses) / float64(c.BranchInstructions)
	}
	if missRate(worm) <= missRate(benign) {
		t.Fatalf("worm branch miss rate %v not above benign %v", missRate(worm), missRate(benign))
	}
	icRate := func(c micro.Counts) float64 {
		return float64(c.L1ICacheLoadMisses) / float64(c.L1ICacheLoads)
	}
	if icRate(rootkit) <= icRate(benign) {
		t.Fatalf("rootkit icache miss rate %v not above benign %v", icRate(rootkit), icRate(benign))
	}
	storeRate := func(c micro.Counts) float64 {
		return float64(c.NodeStores) / float64(c.Instructions)
	}
	if storeRate(virus) <= storeRate(benign) {
		t.Fatalf("virus node-store rate %v not above benign %v", storeRate(virus), storeRate(benign))
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted program with no phases")
	}
	good, _ := NewSample(Benign, 1)
	bad := *good
	bad.TransitionW = bad.TransitionW[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted ragged transition matrix")
	}
	bad2 := *good
	bad2.Phases = append([]Phase{}, good.Phases...)
	bad2.Phases[0].IPC = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("accepted zero IPC")
	}
}

func TestBenignKernelCoverage(t *testing.T) {
	// Over many seeds, every kernel in the suite should be instantiated.
	seen := make(map[string]bool)
	for seed := uint64(0); seed < 200; seed++ {
		p, _ := NewSample(Benign, seed)
		seen[strings.TrimPrefix(p.Name, "benign/")] = true
	}
	for _, k := range BenignKernelNames() {
		if !seen[k] {
			t.Fatalf("kernel %q never chosen across 200 seeds", k)
		}
	}
}

// Property: every generated sample's phases pass block validation and have
// positive dwell/IPC for any seed.
func TestSampleValidityProperty(t *testing.T) {
	f := func(seed uint64, classRaw uint8) bool {
		c := Class(int(classRaw) % NumClasses)
		p, err := NewSample(c, seed)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyVariantsAppear(t *testing.T) {
	// Every documented variant must show up across seeds, and variants of
	// one family must differ structurally.
	wantVariants := []string{
		"backdoor/bindshell", "backdoor/reverse",
		"rootkit/hook", "rootkit/dkom",
		"virus/prepender", "virus/cavity",
		"worm/scanner", "worm/hitlist",
	}
	seen := map[string]bool{}
	for seed := uint64(0); seed < 300; seed++ {
		for _, c := range []Class{Backdoor, Rootkit, Virus, Worm} {
			p, err := NewSample(c, seed)
			if err != nil {
				t.Fatal(err)
			}
			seen[p.Name] = true
		}
	}
	for _, v := range wantVariants {
		if !seen[v] {
			t.Fatalf("variant %q never generated across 300 seeds", v)
		}
	}
}

func TestRootkitVariantsDiffer(t *testing.T) {
	// Find one sample of each rootkit variant and compare code footprints:
	// the DKOM variant trades code scatter for data chasing.
	var hook, dkom *Program
	for seed := uint64(0); seed < 200 && (hook == nil || dkom == nil); seed++ {
		p, err := NewSample(Rootkit, seed)
		if err != nil {
			t.Fatal(err)
		}
		switch p.Name {
		case "rootkit/hook":
			if hook == nil {
				hook = p
			}
		case "rootkit/dkom":
			if dkom == nil {
				dkom = p
			}
		}
	}
	if hook == nil || dkom == nil {
		t.Fatal("did not find both rootkit variants")
	}
	// Phase 0 is dispatch in both.
	if dkom.Phases[0].Block.CodeFootprint >= hook.Phases[0].Block.CodeFootprint {
		t.Fatalf("dkom code footprint %d not below hook %d",
			dkom.Phases[0].Block.CodeFootprint, hook.Phases[0].Block.CodeFootprint)
	}
	if dkom.Phases[1].Block.DataRandomFrac <= hook.Phases[1].Block.DataRandomFrac {
		t.Fatal("dkom hide phase not more pointer-chasing than hook's")
	}
}
