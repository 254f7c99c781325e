//go:build race

package ingest

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of the items put back into it.
const raceEnabled = true
