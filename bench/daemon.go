package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a running `hpcmal serve` child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	pid     string
	drained chan struct{} // closed once the daemon's stdout reached EOF
}

// startDaemon spawns `hpcmal serve args...` with the harness's CPU
// budget, and returns once GET /readyz answers 200, with the time that
// took. The daemon's log goes to logPath.
func startDaemon(c *http.Client, bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"serve"}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.Stderr = logf
	// The daemon must not outlive the harness, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), drained: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "telemetry on "); ok {
				u, _, _ := strings.Cut(rest, " ")
				select {
				case urls <- u:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	select {
	case d.url = <-urls:
	case <-d.drained:
		return fail(fmt.Errorf("daemon exited before listening (log: %s)", logPath))
	case <-time.After(time.Minute):
		return fail(fmt.Errorf("daemon did not listen within a minute (log: %s)", logPath))
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if code, _, err := get(c, d.url+"/readyz"); err == nil && code == http.StatusOK {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("daemon not ready within two minutes (log: %s)", logPath))
		}
	}
}

// stop interrupts the daemon, which drains and exits, and waits for it;
// a daemon still running after 20 s is killed.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	return d.cmd.Wait()
}

// newClient returns an HTTP client that keeps at most one connection, so
// the number of clients bounds the connections the harness opens.
func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// get fetches url and returns its status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ingestStats is the part of GET /api/v1/ingest the harness reads.
type ingestStats struct {
	Queued           int64 `json:"queued"`
	WindowsIngested  int64 `json:"windows_ingested"`
	WindowsProcessed int64 `json:"windows_processed"`
	BatchesRejected  int64 `json:"batches_rejected"`
	MalwareWindows   int64 `json:"malware_windows"`
}

func (d *daemon) stats(c *http.Client) (ingestStats, error) {
	var st ingestStats
	code, b, err := get(c, d.url+"/api/v1/ingest")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /api/v1/ingest: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// metrics scrapes and parses the daemon's /metrics.
func (d *daemon) metrics(c *http.Client) ([]promSample, error) {
	code, b, err := get(c, d.url+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(string(b))
}

// awaitFirstProfile waits until the daemon's continuous profiler has
// stored the captures of its first cycle, which starts with the process:
// a CPU profile over the duty window, then the snapshot profiles.
func (d *daemon) awaitFirstProfile(c *http.Client) error {
	var body struct {
		Stats struct {
			Captures int64 `json:"captures"`
		} `json:"stats"`
	}
	last := int64(-1)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		code, b, err := get(c, d.url+"/api/v1/profiles?limit=0")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("GET /api/v1/profiles: %d %v", code, err)
		}
		if err := json.Unmarshal(b, &body); err != nil {
			return err
		}
		n := body.Stats.Captures
		if n > 0 && n == last {
			return nil
		}
		last = n
	}
	return fmt.Errorf("the daemon's profiler stored no capture within a minute")
}
