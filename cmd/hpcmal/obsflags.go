package main

import (
	"flag"

	"repro/internal/obs"
	"repro/internal/obsflag"
	"repro/internal/parallel"
)

// obsFlags carries the options every subcommand shares — the obsflag
// layer's logging/metrics/profiling/telemetry flags plus the CLI's
// manifest handling.
type obsFlags struct {
	*obsflag.Flags
	command     string
	manifestOut string

	manifest *obs.Manifest
}

// addObsFlags registers the shared observability flags on a subcommand's
// flag set.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{Flags: obsflag.Add(fs), command: fs.Name()}
	fs.StringVar(&f.manifestOut, "manifest", "", "write the run manifest JSON to `file` (overrides the default path)")
	return f
}

// setup installs the process logger, clears run-scoped metric and span
// state (so sequential in-process invocations start every run from
// identical instruments), starts profiling and the -listen telemetry
// server, and opens the run manifest — published live on
// /api/v1/manifest.
func (f *obsFlags) setup() error {
	if err := f.Flags.Setup(); err != nil {
		return err
	}
	f.manifest = obs.NewManifest("hpcmal", f.command)
	f.manifest.Workers = parallel.DefaultWorkers()
	f.SetManifest(f.manifest)
	return nil
}

// finish flushes the run artifacts (-metrics-out, -trace-out,
// -memprofile), stops CPU profiling, and drains the -listen server. Call
// it once, after the command's work succeeded.
func (f *obsFlags) finish() error {
	return f.Flags.Finish()
}

// writeManifest stamps the run's identity and results into the manifest,
// folds in the top-level spans and the parallel pools (worker count, busy
// vs wall seconds, speedup) as stages, and writes it to path (or the
// -manifest override when set).
func (f *obsFlags) writeManifest(path string, seed uint64, scale float64,
	outputs []string, rows, samples int) error {
	if f.manifestOut != "" {
		path = f.manifestOut
	}
	if path == "" {
		return nil
	}
	m := f.manifest
	m.Seed = seed
	m.Scale = scale
	m.Outputs = outputs
	m.Rows = rows
	m.Samples = samples
	m.StagesFromSpans(obs.DefaultTracer.Snapshot())
	m.ParallelStagesFromMetrics(obs.DefaultRegistry.Snapshot())
	if err := m.WriteFile(path); err != nil {
		return err
	}
	obs.Log().Info("manifest written", "path", path)
	return nil
}

// parseInterleaved parses fs over args while allowing flags to appear
// after positional arguments (the flag package stops at the first
// positional, which would make `hpcmal repro fig13 -metrics-out m.json`
// silently drop the flags). Returns the positional arguments in order.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return pos, nil
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
}
