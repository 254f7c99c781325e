package micro

import (
	"fmt"

	"repro/internal/rng"
)

// Config describes a machine's microarchitectural geometry and timing.
type Config struct {
	Name string

	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	LineSize         int

	ITLBEntries, DTLBEntries int
	PageSize                 int

	BranchHistBits uint
	BTBEntries     int

	FreqHz     uint64 // core clock
	BusHz      uint64 // bus clock (bus-cycles event)
	BaseCPI    float64
	L1Penalty  float64 // extra cycles for an L1 miss that hits L2
	L2Penalty  float64 // extra cycles for an L2 miss that hits LLC
	MemPenalty float64 // extra cycles for an LLC miss (DRAM)
	BrPenalty  float64 // branch mispredict flush
	TLBPenalty float64 // page-walk cost
}

// HaswellConfig returns geometry matching the paper's Intel Core i5-4590
// (Haswell): 32 KB L1s, 256 KB L2, 6 MB LLC, 3.3 GHz.
func HaswellConfig() Config {
	return Config{
		Name:    "haswell-i5-4590",
		L1ISize: 32 << 10, L1IWays: 8,
		L1DSize: 32 << 10, L1DWays: 8,
		L2Size: 256 << 10, L2Ways: 8,
		LLCSize: 6 << 20, LLCWays: 12,
		LineSize:    64,
		ITLBEntries: 128, DTLBEntries: 64,
		PageSize:       4096,
		BranchHistBits: 14,
		BTBEntries:     4096,
		FreqHz:         3_300_000_000,
		BusHz:          100_000_000,
		BaseCPI:        0.4,
		L1Penalty:      10,
		L2Penalty:      25,
		MemPenalty:     180,
		BrPenalty:      16,
		TLBPenalty:     30,
	}
}

// DefaultConfig returns the scaled machine used for dataset generation.
//
// The trace sampler simulates only a few thousand instructions out of each
// 10 ms window and extrapolates (SMARTS-style sampling). At that sample
// size a full-size 6 MB LLC never reaches steady state, so the default
// machine shrinks every structure by ~16x and the workload models shrink
// their footprints to match. Miss *rates* — the signal the detector
// learns — stay in realistic ranges; see DESIGN.md.
func DefaultConfig() Config {
	return Config{
		Name:    "haswell-scaled-16x",
		L1ISize: 2 << 10, L1IWays: 4,
		L1DSize: 2 << 10, L1DWays: 4,
		L2Size: 16 << 10, L2Ways: 8,
		LLCSize: 384 << 10, LLCWays: 12,
		LineSize:    64,
		ITLBEntries: 16, DTLBEntries: 16,
		PageSize:       4096,
		BranchHistBits: 10,
		BTBEntries:     256,
		FreqHz:         3_300_000_000,
		BusHz:          100_000_000,
		BaseCPI:        0.4,
		L1Penalty:      10,
		L2Penalty:      25,
		MemPenalty:     180,
		BrPenalty:      16,
		TLBPenalty:     30,
	}
}

// Block describes a homogeneous stretch of dynamic instructions: the
// instruction mix and the memory/branch behaviour that the workload models
// in internal/workload use to express application phases.
type Block struct {
	// Instruction mix; fractions of dynamic instructions. The remainder
	// is plain ALU work. LoadFrac+StoreFrac+BranchFrac must be <= 1.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64

	// Data behaviour.
	DataFootprint   uint64  // bytes of primary working set (>= LineSize)
	DataStride      uint64  // bytes between sequential accesses
	DataRandomFrac  float64 // fraction of accesses at random offsets
	RemoteFrac      float64 // fraction of data ops in the secondary region
	RemoteFootprint uint64  // bytes of secondary region (streaming buffers)

	// Code behaviour.
	CodeFootprint uint64  // bytes of hot code
	CodeJumpFrac  float64 // fraction of taken branches that jump far

	// Branch behaviour.
	BranchTakenProb float64 // P(taken) for unpredictable branches
	BranchEntropy   float64 // 0 = fully predictable, 1 = coin flips
}

// Validate reports whether the block's parameters are internally
// consistent.
func (b Block) Validate() error {
	sum := b.LoadFrac + b.StoreFrac + b.BranchFrac
	if b.LoadFrac < 0 || b.StoreFrac < 0 || b.BranchFrac < 0 || sum > 1+1e-9 {
		return fmt.Errorf("micro: instruction mix fractions invalid (sum %.3f)", sum)
	}
	for _, f := range []float64{b.DataRandomFrac, b.RemoteFrac, b.CodeJumpFrac,
		b.BranchTakenProb, b.BranchEntropy} {
		if f < 0 || f > 1 {
			return fmt.Errorf("micro: probability field out of [0,1]: %v", f)
		}
	}
	if b.DataFootprint == 0 || b.CodeFootprint == 0 {
		return fmt.Errorf("micro: zero footprint")
	}
	return nil
}

// Machine is one simulated core with private caches, TLBs, and branch
// predictor. A Machine is not safe for concurrent use; the trace package
// gives each container its own.
type Machine struct {
	cfg Config

	l1i, l1d, l2, llc *Cache
	itlb, dtlb        *TLB
	bp                *BranchPredictor

	src *rng.Source

	codeBase, dataBase, remoteBase uint64
	codePos, dataPos               uint64
}

// NewMachine builds a machine from cfg, seeding its internal randomness
// (address-space layout, branch outcomes) from seed.
func NewMachine(cfg Config, seed uint64) *Machine {
	m := &Machine{
		cfg:  cfg,
		l1i:  MustCache("L1I", cfg.L1ISize, cfg.L1IWays, cfg.LineSize),
		l1d:  MustCache("L1D", cfg.L1DSize, cfg.L1DWays, cfg.LineSize),
		l2:   MustCache("L2", cfg.L2Size, cfg.L2Ways, cfg.LineSize),
		llc:  MustCache("LLC", cfg.LLCSize, cfg.LLCWays, cfg.LineSize),
		itlb: MustTLB("iTLB", cfg.ITLBEntries, cfg.PageSize),
		dtlb: MustTLB("dTLB", cfg.DTLBEntries, cfg.PageSize),
		bp:   NewBranchPredictor(cfg.BranchHistBits, cfg.BTBEntries),
		src:  rng.New(seed),
	}
	// Haswell runs next-line prefetchers at L1D and LLC.
	m.l1d.EnablePrefetcher()
	m.llc.EnablePrefetcher()
	m.randomizeLayout()
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

func (m *Machine) randomizeLayout() {
	// ASLR-like placement: distinct 4 GB-aligned regions with random page
	// offsets, so different samples do not share cache set alignment.
	m.codeBase = 0x0000_4000_0000_0000 | uint64(m.src.Intn(1<<20))<<12
	m.dataBase = 0x0000_7000_0000_0000 | uint64(m.src.Intn(1<<20))<<12
	m.remoteBase = 0x0000_7f00_0000_0000 | uint64(m.src.Intn(1<<20))<<12
	m.codePos = 0
	m.dataPos = 0
}

// Reset flushes all structures and re-randomizes the address layout,
// modelling a fresh container/process.
func (m *Machine) Reset() {
	m.l1i.Flush()
	m.l1d.Flush()
	m.l2.Flush()
	m.llc.Flush()
	m.itlb.Flush()
	m.dtlb.Flush()
	m.bp.Flush()
	m.randomizeLayout()
}

// memAccess performs one data-side memory access through the hierarchy,
// updating counts. store selects the store counters.
func (m *Machine) memAccess(addr uint64, store bool, c *Counts) {
	// TLB
	if store {
		c.DTLBStores++
		c.DTLBStoreMiss += b2u(!m.dtlb.Access(addr))
	} else {
		c.DTLBLoads++
		c.DTLBLoadMisses += b2u(!m.dtlb.Access(addr))
	}
	// L1D
	if store {
		c.L1DCacheStores++
	} else {
		c.L1DCacheLoads++
	}
	if m.l1d.Access(addr) {
		return
	}
	if store {
		c.L1DCacheStoreMiss++
	} else {
		c.L1DCacheLoadMisses++
	}
	// L2
	if m.l2.Access(addr) {
		return
	}
	// LLC: perf's LLC-loads/stores count references to the last level.
	c.CacheReferences++
	if store {
		c.LLCStores++
	} else {
		c.LLCLoads++
	}
	if m.llc.Access(addr) {
		return
	}
	c.CacheMisses++
	if store {
		c.LLCStoreMisses++
		c.NodeStores++
	} else {
		c.LLCLoadMisses++
		c.NodeLoads++
	}
}

// ifetch performs one instruction-fetch access (a 16-byte fetch group).
func (m *Machine) ifetch(addr uint64, c *Counts) {
	c.ITLBLoads++
	c.ITLBLoadMisses += b2u(!m.itlb.Access(addr))
	c.L1ICacheLoads++
	if m.l1i.Access(addr) {
		return
	}
	c.L1ICacheLoadMisses++
	if m.l2.Access(addr) {
		return
	}
	c.CacheReferences++
	c.LLCLoads++
	if m.llc.Access(addr) {
		return
	}
	c.CacheMisses++
	c.LLCLoadMisses++
	c.NodeLoads++
}

// dataAddr picks the next data address according to the block's locality
// parameters.
func (m *Machine) dataAddr(b *Block) uint64 {
	if b.RemoteFrac > 0 && m.src.Float64() < b.RemoteFrac {
		fp := b.RemoteFootprint
		if fp < uint64(m.cfg.LineSize) {
			fp = uint64(m.cfg.LineSize)
		}
		return m.remoteBase + uint64(m.src.Int63())%fp
	}
	fp := b.DataFootprint
	if fp < uint64(m.cfg.LineSize) {
		fp = uint64(m.cfg.LineSize)
	}
	if b.DataRandomFrac > 0 && m.src.Float64() < b.DataRandomFrac {
		return m.dataBase + uint64(m.src.Int63())%fp
	}
	stride := b.DataStride
	if stride == 0 {
		stride = 8
	}
	m.dataPos += stride
	if m.dataPos >= fp {
		m.dataPos %= fp
	}
	return m.dataBase + m.dataPos
}

// ExecuteBlock runs n dynamic instructions with the behaviour described by
// b and returns the raw event counts they generated. The machine's caches,
// TLBs and predictor carry state across calls, so consecutive blocks see
// warm structures exactly as consecutive program phases would.
func (m *Machine) ExecuteBlock(b Block, n int) (Counts, error) {
	if err := b.Validate(); err != nil {
		return Counts{}, err
	}
	if n < 0 {
		return Counts{}, fmt.Errorf("micro: negative instruction count %d", n)
	}
	var c Counts
	c.Instructions = uint64(n)
	pfL1D0, pfL1Dm0 := m.l1d.Prefetches, m.l1d.PrefetchMisses
	pfLLC0, pfLLCm0 := m.llc.Prefetches, m.llc.PrefetchMisses

	// Bresenham-style schedulers keep the instruction mix exact without a
	// random draw per instruction.
	var loadAcc, storeAcc, branchAcc float64
	const fetchBytes = 16 // one L1I access per 16-byte fetch group

	codeFP := b.CodeFootprint
	if codeFP < fetchBytes {
		codeFP = fetchBytes
	}

	for i := 0; i < n; i++ {
		// Instruction fetch: 4-byte instructions fill a group every 4th.
		if i&3 == 3 {
			m.ifetch(m.codeBase+m.codePos, &c)
			m.codePos += fetchBytes
			if m.codePos >= codeFP {
				m.codePos %= codeFP
			}
		}

		loadAcc += b.LoadFrac
		if loadAcc >= 1 {
			loadAcc--
			m.memAccess(m.dataAddr(&b), false, &c)
		}
		storeAcc += b.StoreFrac
		if storeAcc >= 1 {
			storeAcc--
			m.memAccess(m.dataAddr(&b), true, &c)
		}
		branchAcc += b.BranchFrac
		if branchAcc >= 1 {
			branchAcc--
			m.branch(&b, codeFP, &c)
		}
	}

	c.L1DPrefetches = m.l1d.Prefetches - pfL1D0
	c.L1DPrefetchMisses = m.l1d.PrefetchMisses - pfL1Dm0
	c.LLCPrefetches = m.llc.Prefetches - pfLLC0
	c.LLCPrefetchMisses = m.llc.PrefetchMisses - pfLLCm0
	m.fillTiming(&c)
	return c, nil
}

// branch executes one conditional branch at the current code position.
func (m *Machine) branch(b *Block, codeFP uint64, c *Counts) {
	pc := m.codeBase + m.codePos
	var taken bool
	if b.BranchEntropy > 0 && m.src.Float64() < b.BranchEntropy {
		taken = m.src.Bool(b.BranchTakenProb)
	} else {
		// Predictable branch: outcome is a fixed function of the PC, so
		// the gshare predictor can learn it.
		taken = (pc>>4)&1 == 0
	}
	correct := m.bp.Predict(pc, taken)
	c.BranchInstructions++
	c.BranchMisses += b2u(!correct)
	if taken {
		// BTB lookups/misses accrue inside the predictor and are folded
		// into the counts by fillTiming at the end of the block.
		c.BranchLoads++
		if b.CodeJumpFrac > 0 && m.src.Float64() < b.CodeJumpFrac {
			m.codePos = (uint64(m.src.Int63()) % codeFP) &^ 15
		}
	}
}

// fillTiming derives cycle-domain events from the architectural counts via
// a fixed-penalty performance model, then folds in BTB statistics.
func (m *Machine) fillTiming(c *Counts) {
	// BTB misses accumulated inside the predictor since last harvest.
	c.BranchLoadMisses += m.bp.BTBMisses
	m.bp.ResetStats()

	cfg := &m.cfg
	cycles := cfg.BaseCPI*float64(c.Instructions) +
		cfg.L1Penalty*float64(c.L1DCacheLoadMisses+c.L1DCacheStoreMiss+c.L1ICacheLoadMisses) +
		cfg.L2Penalty*float64(c.LLCLoads+c.LLCStores) +
		cfg.MemPenalty*float64(c.CacheMisses) +
		cfg.BrPenalty*float64(c.BranchMisses) +
		cfg.TLBPenalty*float64(c.DTLBLoadMisses+c.DTLBStoreMiss+c.ITLBLoadMisses)
	c.Cycles = uint64(cycles + 0.5)
	c.RefCycles = c.Cycles
	c.BusCycles = uint64(cycles*float64(cfg.BusHz)/float64(cfg.FreqHz) + 0.5)
}

// WindowInstructions returns how many instructions a window of the given
// duration (in seconds) holds at the machine's clock, assuming the given
// average IPC.
func (m *Machine) WindowInstructions(seconds, ipc float64) uint64 {
	return uint64(seconds * ipc * float64(m.cfg.FreqHz))
}
