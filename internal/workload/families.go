package workload

import (
	"fmt"

	"repro/internal/micro"
	"repro/internal/rng"
)

// Footprint anchors, sized for the scaled default machine
// (L1D 2 KB, L2 16 KB, LLC 384 KB). See micro.DefaultConfig.
const (
	fpTiny   = 1 << 10   // fits L1
	fpSmall  = 8 << 10   // fits L2
	fpMedium = 64 << 10  // fits LLC
	fpLarge  = 512 << 10 // exceeds LLC
	fpHuge   = 2 << 20   // streaming
)

// NewSample generates one randomized application sample of the given
// class, seeded so that the same (class, seed) pair always yields the same
// program. The returned program is started and ready to Advance.
func NewSample(class Class, seed uint64) (*Program, error) {
	src := rng.New(seed ^ (uint64(class+1) * 0x9e3779b97f4a7c15))
	var p *Program
	switch class {
	case Benign:
		p = benignSample(src)
	case Backdoor:
		p = backdoorSample(src)
	case Rootkit:
		p = rootkitSample(src)
	case Trojan:
		p = trojanSample(src)
	case Virus:
		p = virusSample(src)
	case Worm:
		p = wormSample(src)
	default:
		return nil, fmt.Errorf("workload: unknown class %v", class)
	}
	// Each share is jittered on its own, so now and then a phase's load,
	// store and branch shares sum past 1 (about 1 draw in 12,000). Trim the
	// branch share by the excess exactly when Block.Validate would reject
	// the mix; no random number is drawn, so every program that validated
	// untrimmed is unchanged.
	for i := range p.Phases {
		b := &p.Phases[i].Block
		if sum := b.LoadFrac + b.StoreFrac + b.BranchFrac; sum > 1+1e-9 {
			b.BranchFrac -= sum - 1
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.bind(src.Split())
	return p, nil
}

// BenignKernelNames lists the benign program suite (MiBench-flavoured
// kernels, matching the "inbuilt or installed programs" of Table 1).
func BenignKernelNames() []string {
	return []string{
		"basicmath", "qsort", "dijkstra", "sha", "jpeg",
		"fft", "stringsearch", "patricia",
	}
}

// benignSample picks one kernel from the benign suite and randomizes it.
func benignSample(src *rng.Source) *Program {
	kernels := BenignKernelNames()
	name := kernels[src.Intn(len(kernels))]
	var compute, memory micro.Block
	var ipcC, ipcM float64

	switch name {
	case "basicmath", "sha":
		// ALU/crypto kernels: tiny footprints, highly predictable.
		compute = micro.Block{
			LoadFrac: jprob(src, 0.18, 0.2, 0.05, 0.4), StoreFrac: jprob(src, 0.06, 0.2, 0.01, 0.2),
			BranchFrac:    jprob(src, 0.12, 0.2, 0.05, 0.3),
			DataFootprint: jbytes(src, fpTiny, 0.3), DataStride: 8,
			DataRandomFrac: 0.02, CodeFootprint: jbytes(src, fpTiny, 0.3),
			CodeJumpFrac: 0.01, BranchTakenProb: 0.85, BranchEntropy: jprob(src, 0.05, 0.3, 0, 0.2),
		}
		memory = compute
		memory.DataFootprint = jbytes(src, fpSmall, 0.3)
		ipcC, ipcM = 2.6, 2.2
	case "qsort", "stringsearch":
		// Compare-heavy, data-dependent branches.
		compute = micro.Block{
			LoadFrac: jprob(src, 0.28, 0.2, 0.1, 0.45), StoreFrac: jprob(src, 0.12, 0.2, 0.02, 0.25),
			BranchFrac:    jprob(src, 0.24, 0.2, 0.1, 0.35),
			DataFootprint: jbytes(src, fpSmall, 0.4), DataStride: 16,
			DataRandomFrac: jprob(src, 0.35, 0.3, 0.1, 0.7), CodeFootprint: jbytes(src, fpTiny, 0.3),
			CodeJumpFrac: 0.02, BranchTakenProb: 0.55, BranchEntropy: jprob(src, 0.45, 0.25, 0.2, 0.8),
		}
		memory = compute
		memory.DataFootprint = jbytes(src, fpMedium, 0.4)
		ipcC, ipcM = 1.6, 1.2
	case "dijkstra", "patricia":
		// Pointer chasing over medium graphs.
		compute = micro.Block{
			LoadFrac: jprob(src, 0.32, 0.2, 0.15, 0.5), StoreFrac: jprob(src, 0.08, 0.2, 0.02, 0.2),
			BranchFrac:    jprob(src, 0.2, 0.2, 0.1, 0.3),
			DataFootprint: jbytes(src, fpMedium, 0.4), DataStride: 32,
			DataRandomFrac: jprob(src, 0.6, 0.2, 0.3, 0.9), CodeFootprint: jbytes(src, fpTiny, 0.3),
			CodeJumpFrac: 0.02, BranchTakenProb: 0.6, BranchEntropy: jprob(src, 0.3, 0.3, 0.1, 0.6),
		}
		memory = compute
		memory.DataRandomFrac = jprob(src, 0.8, 0.1, 0.5, 1)
		ipcC, ipcM = 1.2, 0.9
	default: // "jpeg", "fft": streaming/stride kernels
		compute = micro.Block{
			LoadFrac: jprob(src, 0.26, 0.2, 0.1, 0.45), StoreFrac: jprob(src, 0.18, 0.2, 0.05, 0.3),
			BranchFrac:    jprob(src, 0.1, 0.2, 0.04, 0.2),
			DataFootprint: jbytes(src, fpMedium, 0.5), DataStride: 64,
			DataRandomFrac: jprob(src, 0.05, 0.3, 0, 0.2), CodeFootprint: jbytes(src, fpSmall, 0.3),
			CodeJumpFrac: 0.01, BranchTakenProb: 0.8, BranchEntropy: jprob(src, 0.1, 0.3, 0, 0.3),
		}
		memory = compute
		memory.DataFootprint = jbytes(src, fpLarge, 0.4)
		ipcC, ipcM = 2.0, 1.4
	}

	return &Program{
		Name:  "benign/" + name,
		Class: Benign,
		Phases: []Phase{
			{Name: "compute", Block: compute, IPC: jitter(src, ipcC, 0.15), MeanDwell: jitter(src, 0.05, 0.3)},
			{Name: "memory", Block: memory, IPC: jitter(src, ipcM, 0.15), MeanDwell: jitter(src, 0.03, 0.3)},
		},
		TransitionW: uniformTransitions(2, 2),
	}
}

// backdoorSample: a long-dwelling low-activity poll loop with occasional
// command execution and exfiltration bursts over a remote (network-buffer)
// region. Distinctive: very low sustained activity, bursty node-stores.
func backdoorSample(src *rng.Source) *Program {
	poll := micro.Block{
		LoadFrac: jprob(src, 0.22, 0.2, 0.1, 0.4), StoreFrac: jprob(src, 0.04, 0.3, 0.01, 0.15),
		BranchFrac:    jprob(src, 0.3, 0.15, 0.15, 0.4),
		DataFootprint: jbytes(src, fpTiny, 0.3), DataStride: 16,
		DataRandomFrac: 0.05, CodeFootprint: jbytes(src, fpTiny, 0.3),
		CodeJumpFrac: 0.02, BranchTakenProb: 0.9, BranchEntropy: jprob(src, 0.08, 0.3, 0, 0.25),
	}
	exec := micro.Block{
		LoadFrac: jprob(src, 0.26, 0.2, 0.1, 0.45), StoreFrac: jprob(src, 0.12, 0.2, 0.03, 0.25),
		BranchFrac:    jprob(src, 0.22, 0.2, 0.1, 0.35),
		DataFootprint: jbytes(src, fpSmall, 0.4), DataStride: 32,
		DataRandomFrac: jprob(src, 0.3, 0.3, 0.05, 0.6), CodeFootprint: jbytes(src, fpSmall, 0.4),
		CodeJumpFrac: jprob(src, 0.1, 0.3, 0.02, 0.3), BranchTakenProb: 0.6,
		BranchEntropy: jprob(src, 0.35, 0.3, 0.1, 0.6),
	}
	exfil := micro.Block{
		LoadFrac: jprob(src, 0.3, 0.2, 0.15, 0.45), StoreFrac: jprob(src, 0.2, 0.2, 0.08, 0.35),
		BranchFrac:    jprob(src, 0.12, 0.2, 0.05, 0.25),
		DataFootprint: jbytes(src, fpSmall, 0.3), DataStride: 64,
		DataRandomFrac: 0.05, RemoteFrac: jprob(src, 0.55, 0.2, 0.3, 0.8),
		RemoteFootprint: jbytes(src, fpLarge, 0.4),
		CodeFootprint:   jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.02,
		BranchTakenProb: 0.75, BranchEntropy: jprob(src, 0.15, 0.3, 0.02, 0.4),
	}
	// Variants: a bind-shell backdoor idles until contacted; a reverse
	// (beaconing) backdoor wakes on its own schedule, so its exfil phase
	// recurs more often and the poll loop runs a touch hotter.
	name := "backdoor/bindshell"
	pollIPC, pollW := 0.18, 6.0
	if src.Bool(0.5) {
		name = "backdoor/reverse"
		pollIPC, pollW = 0.3, 3.5
		exfil.RemoteFrac = jprob(src, exfil.RemoteFrac+0.1, 0.1, 0, 1)
	}
	return &Program{
		Name:  name,
		Class: Backdoor,
		Phases: []Phase{
			{Name: "poll", Block: poll, IPC: jitter(src, pollIPC, 0.25), MeanDwell: jitter(src, 0.12, 0.3)},
			{Name: "exec", Block: exec, IPC: jitter(src, 1.1, 0.2), MeanDwell: jitter(src, 0.02, 0.3)},
			{Name: "exfil", Block: exfil, IPC: jitter(src, 1.4, 0.2), MeanDwell: jitter(src, 0.025, 0.3)},
		},
		// Poll dominates: strong self-loop, bursts are short excursions.
		TransitionW: [][]float64{
			{pollW, 1, 1},
			{3, 1, 1},
			{3, 1, 1},
		},
	}
}

// rootkitSample: hook-dispatch control flow scattered over a large code
// footprint plus kernel-list walks. Distinctive: i-cache/iTLB pressure and
// pointer-chase LLC load misses.
func rootkitSample(src *rng.Source) *Program {
	dispatch := micro.Block{
		LoadFrac: jprob(src, 0.24, 0.2, 0.1, 0.4), StoreFrac: jprob(src, 0.08, 0.2, 0.02, 0.2),
		BranchFrac:    jprob(src, 0.26, 0.15, 0.15, 0.38),
		DataFootprint: jbytes(src, fpSmall, 0.4), DataStride: 32,
		DataRandomFrac:  jprob(src, 0.3, 0.3, 0.1, 0.6),
		CodeFootprint:   jbytes(src, fpMedium*2, 0.4), // scattered hooks
		CodeJumpFrac:    jprob(src, 0.45, 0.2, 0.2, 0.7),
		BranchTakenProb: 0.6, BranchEntropy: jprob(src, 0.3, 0.3, 0.1, 0.6),
	}
	hide := micro.Block{
		LoadFrac: jprob(src, 0.36, 0.15, 0.2, 0.5), StoreFrac: jprob(src, 0.06, 0.3, 0.01, 0.18),
		BranchFrac:    jprob(src, 0.2, 0.2, 0.1, 0.3),
		DataFootprint: jbytes(src, fpLarge, 0.4), DataStride: 64,
		DataRandomFrac:  jprob(src, 0.85, 0.1, 0.6, 1), // list walking
		CodeFootprint:   jbytes(src, fpSmall, 0.4),
		CodeJumpFrac:    jprob(src, 0.15, 0.3, 0.05, 0.35),
		BranchTakenProb: 0.65, BranchEntropy: jprob(src, 0.4, 0.25, 0.15, 0.7),
	}
	scrub := micro.Block{
		LoadFrac: jprob(src, 0.2, 0.2, 0.1, 0.35), StoreFrac: jprob(src, 0.22, 0.2, 0.1, 0.35),
		BranchFrac:    jprob(src, 0.12, 0.2, 0.05, 0.22),
		DataFootprint: jbytes(src, fpMedium, 0.4), DataStride: 64,
		DataRandomFrac: 0.1, CodeFootprint: jbytes(src, fpTiny, 0.3),
		CodeJumpFrac: 0.03, BranchTakenProb: 0.8, BranchEntropy: jprob(src, 0.12, 0.3, 0, 0.3),
	}
	// Variants: a syscall-hooking rootkit scatters control flow through
	// trampolines (i-cache pressure); a DKOM rootkit mutates kernel data
	// structures instead, trading code scatter for deeper pointer chasing.
	name := "rootkit/hook"
	if src.Bool(0.4) {
		name = "rootkit/dkom"
		dispatch.CodeFootprint = jbytes(src, float64(dispatch.CodeFootprint)*0.4, 0.2)
		dispatch.CodeJumpFrac = jprob(src, dispatch.CodeJumpFrac*0.5, 0.2, 0.02, 1)
		hide.DataRandomFrac = jprob(src, 0.95, 0.03, 0.8, 1)
		hide.DataFootprint = jbytes(src, float64(hide.DataFootprint)*1.5, 0.2)
	}
	return &Program{
		Name:  name,
		Class: Rootkit,
		Phases: []Phase{
			{Name: "dispatch", Block: dispatch, IPC: jitter(src, 0.9, 0.2), MeanDwell: jitter(src, 0.04, 0.3)},
			{Name: "hide", Block: hide, IPC: jitter(src, 0.7, 0.2), MeanDwell: jitter(src, 0.05, 0.3)},
			{Name: "scrub", Block: scrub, IPC: jitter(src, 1.3, 0.2), MeanDwell: jitter(src, 0.02, 0.3)},
		},
		TransitionW: [][]float64{
			{4, 2, 1},
			{2, 3, 1},
			{2, 1, 1},
		},
	}
}

// trojanSample: masquerades as a benign kernel most of the time, with
// keylogger polling and phishing-exfil payload bursts. Distinctive: the
// hardest family — its signature is mostly benign with rare excursions,
// mirroring the paper's per-class accuracy ordering.
func trojanSample(src *rng.Source) *Program {
	host := benignSample(src) // disguise: a real benign kernel's phases
	keylog := micro.Block{
		LoadFrac: jprob(src, 0.2, 0.2, 0.1, 0.35), StoreFrac: jprob(src, 0.1, 0.2, 0.03, 0.2),
		BranchFrac:    jprob(src, 0.28, 0.15, 0.15, 0.4),
		DataFootprint: jbytes(src, fpTiny, 0.3), DataStride: 8,
		DataRandomFrac: 0.05, CodeFootprint: jbytes(src, fpTiny, 0.3),
		CodeJumpFrac: 0.03, BranchTakenProb: 0.85, BranchEntropy: jprob(src, 0.12, 0.3, 0, 0.3),
	}
	exfil := micro.Block{
		LoadFrac: jprob(src, 0.28, 0.2, 0.12, 0.45), StoreFrac: jprob(src, 0.18, 0.2, 0.06, 0.32),
		BranchFrac:    jprob(src, 0.14, 0.2, 0.05, 0.25),
		DataFootprint: jbytes(src, fpSmall, 0.3), DataStride: 64,
		DataRandomFrac: 0.08, RemoteFrac: jprob(src, 0.45, 0.25, 0.2, 0.75),
		RemoteFootprint: jbytes(src, fpLarge, 0.4),
		CodeFootprint:   jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.03,
		BranchTakenProb: 0.7, BranchEntropy: jprob(src, 0.2, 0.3, 0.05, 0.45),
	}
	phases := append([]Phase{}, host.Phases...)
	// Parasitic overhead: even while the host kernel runs, the implant's
	// hooks, timers and injected code perturb the microarchitectural
	// footprint — the very signal HPC-based detection rests on (Demme et
	// al.). Host phases are therefore near-benign, not identical.
	for i := range phases {
		b := phases[i].Block
		b.BranchFrac = jprob(src, b.BranchFrac*1.12, 0.05, 0.02, 0.45)
		b.BranchEntropy = jprob(src, b.BranchEntropy+0.06, 0.1, 0, 1)
		b.CodeFootprint = jbytes(src, float64(b.CodeFootprint)*1.5, 0.15)
		b.CodeJumpFrac = jprob(src, b.CodeJumpFrac+0.06, 0.1, 0, 1)
		b.RemoteFrac = jprob(src, b.RemoteFrac+0.04, 0.2, 0, 1)
		if b.RemoteFootprint == 0 {
			b.RemoteFootprint = jbytes(src, fpMedium, 0.4)
		}
		phases[i].Block = b
		phases[i].IPC *= 0.93
	}
	phases = append(phases,
		Phase{Name: "keylog", Block: keylog, IPC: jitter(src, 0.35, 0.25), MeanDwell: jitter(src, 0.06, 0.3)},
		Phase{Name: "exfil", Block: exfil, IPC: jitter(src, 1.2, 0.2), MeanDwell: jitter(src, 0.02, 0.3)},
	)
	n := len(phases)
	tw := uniformTransitions(n, 2)
	// At run time the payload dominates (~60% of windows catch it in the
	// act) while the host kernel still claims a large minority — the
	// disguise is what keeps trojan the hardest family without making
	// benign-looking windows majority-malware across the dataset.
	for i := range tw {
		for j := n - 2; j < n; j++ {
			if i != j {
				tw[i][j] = 2.5
			}
		}
	}
	return &Program{
		Name:        "trojan/" + host.Name,
		Class:       Trojan,
		Phases:      phases,
		TransitionW: tw,
	}
}

// virusSample: file-infection loops — scan a directory, read a file
// sequentially, write the infected copy. Distinctive: store-heavy
// streaming with heavy node-store (memory write) traffic.
func virusSample(src *rng.Source) *Program {
	search := micro.Block{
		LoadFrac: jprob(src, 0.26, 0.2, 0.12, 0.4), StoreFrac: jprob(src, 0.06, 0.3, 0.01, 0.15),
		BranchFrac:    jprob(src, 0.24, 0.2, 0.12, 0.35),
		DataFootprint: jbytes(src, fpSmall, 0.4), DataStride: 32,
		DataRandomFrac: jprob(src, 0.4, 0.3, 0.15, 0.7),
		CodeFootprint:  jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.04,
		BranchTakenProb: 0.6, BranchEntropy: jprob(src, 0.35, 0.3, 0.1, 0.6),
	}
	infectRead := micro.Block{
		LoadFrac: jprob(src, 0.4, 0.15, 0.25, 0.55), StoreFrac: jprob(src, 0.08, 0.2, 0.02, 0.2),
		BranchFrac:    jprob(src, 0.08, 0.2, 0.03, 0.18),
		DataFootprint: jbytes(src, fpSmall, 0.3), DataStride: 64,
		DataRandomFrac: 0.02, RemoteFrac: jprob(src, 0.7, 0.15, 0.4, 0.95),
		RemoteFootprint: jbytes(src, fpHuge, 0.4), // streaming file reads
		CodeFootprint:   jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.01,
		BranchTakenProb: 0.85, BranchEntropy: jprob(src, 0.08, 0.3, 0, 0.25),
	}
	infectWrite := micro.Block{
		LoadFrac: jprob(src, 0.18, 0.2, 0.08, 0.3), StoreFrac: jprob(src, 0.34, 0.15, 0.2, 0.48),
		BranchFrac:    jprob(src, 0.08, 0.2, 0.03, 0.18),
		DataFootprint: jbytes(src, fpSmall, 0.3), DataStride: 64,
		DataRandomFrac: 0.02, RemoteFrac: jprob(src, 0.7, 0.15, 0.4, 0.95),
		RemoteFootprint: jbytes(src, fpHuge, 0.4), // streaming file writes
		CodeFootprint:   jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.01,
		BranchTakenProb: 0.85, BranchEntropy: jprob(src, 0.08, 0.3, 0, 0.25),
	}
	// Variants: a prepender rewrites whole files (write-dominated); a
	// cavity infector reads much and patches little.
	name := "virus/prepender"
	if src.Bool(0.4) {
		name = "virus/cavity"
		infectWrite.StoreFrac = jprob(src, infectWrite.StoreFrac*0.45, 0.15, 0.05, 0.3)
		infectWrite.LoadFrac = jprob(src, infectWrite.LoadFrac*1.8, 0.15, 0.1, 0.5)
		infectRead.RemoteFrac = jprob(src, infectRead.RemoteFrac+0.1, 0.1, 0, 1)
	}
	return &Program{
		Name:  name,
		Class: Virus,
		Phases: []Phase{
			{Name: "search", Block: search, IPC: jitter(src, 1.2, 0.2), MeanDwell: jitter(src, 0.03, 0.3)},
			{Name: "infect-read", Block: infectRead, IPC: jitter(src, 1.6, 0.2), MeanDwell: jitter(src, 0.03, 0.3)},
			{Name: "infect-write", Block: infectWrite, IPC: jitter(src, 1.5, 0.2), MeanDwell: jitter(src, 0.035, 0.3)},
		},
		TransitionW: [][]float64{
			{2, 2, 1},
			{1, 2, 3},
			{2, 1, 2},
		},
	}
}

// wormSample: network scanning and self-replication. Distinctive: very
// high branch density with poor predictability (protocol/scan logic) plus
// large memcpy-style replication bursts.
func wormSample(src *rng.Source) *Program {
	scan := micro.Block{
		LoadFrac: jprob(src, 0.24, 0.2, 0.12, 0.4), StoreFrac: jprob(src, 0.08, 0.2, 0.02, 0.2),
		BranchFrac:    jprob(src, 0.34, 0.12, 0.22, 0.45),
		DataFootprint: jbytes(src, fpSmall, 0.4), DataStride: 16,
		DataRandomFrac: jprob(src, 0.5, 0.25, 0.2, 0.8),
		CodeFootprint:  jbytes(src, fpSmall, 0.4), CodeJumpFrac: jprob(src, 0.12, 0.3, 0.03, 0.3),
		BranchTakenProb: 0.5, BranchEntropy: jprob(src, 0.7, 0.15, 0.4, 0.95),
	}
	replicate := micro.Block{
		LoadFrac: jprob(src, 0.34, 0.15, 0.2, 0.48), StoreFrac: jprob(src, 0.32, 0.15, 0.18, 0.45),
		BranchFrac:    jprob(src, 0.08, 0.2, 0.03, 0.16),
		DataFootprint: jbytes(src, fpMedium, 0.4), DataStride: 64,
		DataRandomFrac: 0.02, RemoteFrac: jprob(src, 0.5, 0.2, 0.25, 0.8),
		RemoteFootprint: jbytes(src, fpLarge, 0.4),
		CodeFootprint:   jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.02,
		BranchTakenProb: 0.85, BranchEntropy: jprob(src, 0.1, 0.3, 0, 0.3),
	}
	probe := micro.Block{
		LoadFrac: jprob(src, 0.26, 0.2, 0.12, 0.42), StoreFrac: jprob(src, 0.14, 0.2, 0.05, 0.28),
		BranchFrac:    jprob(src, 0.3, 0.15, 0.18, 0.42),
		DataFootprint: jbytes(src, fpTiny, 0.3), DataStride: 16,
		DataRandomFrac: 0.2, RemoteFrac: jprob(src, 0.3, 0.3, 0.1, 0.6),
		RemoteFootprint: jbytes(src, fpMedium, 0.4),
		CodeFootprint:   jbytes(src, fpTiny, 0.3), CodeJumpFrac: 0.05,
		BranchTakenProb: 0.55, BranchEntropy: jprob(src, 0.6, 0.2, 0.3, 0.9),
	}
	// Variants: a random scanner burns cycles probing address space; a
	// hit-list worm spends its time replicating to known targets.
	name := "worm/scanner"
	scanW := 4.0
	if src.Bool(0.35) {
		name = "worm/hitlist"
		scanW = 1.5
		replicate.RemoteFootprint = jbytes(src, float64(replicate.RemoteFootprint)*1.5, 0.2)
	}
	return &Program{
		Name:  name,
		Class: Worm,
		Phases: []Phase{
			{Name: "scan", Block: scan, IPC: jitter(src, 2.0, 0.15), MeanDwell: jitter(src, 0.04, 0.3)},
			{Name: "replicate", Block: replicate, IPC: jitter(src, 1.6, 0.15), MeanDwell: jitter(src, 0.025, 0.3)},
			{Name: "probe", Block: probe, IPC: jitter(src, 1.8, 0.15), MeanDwell: jitter(src, 0.02, 0.3)},
		},
		TransitionW: [][]float64{
			{scanW, 1, 2},
			{2, 2, 1},
			{3, 1, 2},
		},
	}
}
