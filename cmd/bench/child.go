package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphmatch/internal/httpapi"
	"graphmatch/internal/metrics"
	"graphmatch/internal/store"
)

// buildPhomd compiles the server under test from the checkout's source
// into dir. The Go build cache makes every call after the first a
// staleness check.
func buildPhomd(dir string) (string, error) {
	bin := filepath.Join(dir, "phomd")
	cmd := exec.Command("go", "build", "-o", bin, "graphmatch/cmd/phomd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build graphmatch/cmd/phomd: %v\n%s", err, out)
	}
	return bin, nil
}

// prepareStore writes the workload's catalog into a fresh store
// directory as one snapshot, through the store's own public API, so a
// child booted on it replays exactly what a compacted production store
// would hold. It returns the WriteSnapshot wall time and file size.
func prepareStore(dir string, w *workload) (snapshot time.Duration, bytes int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range w.graphNames() {
		if _, err := st.Append(store.Op{Kind: store.OpRegister, Name: name, Graph: w.graphs[name]}); err != nil {
			st.Close()
			return 0, 0, err
		}
	}
	seq, sealed, err := st.Rotate()
	if err != nil {
		st.Close()
		return 0, 0, err
	}
	start := time.Now()
	if err := st.WriteSnapshot(w.graphs, seq, sealed); err != nil {
		st.Close()
		return 0, 0, err
	}
	snapshot = time.Since(start)
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(filepath.Join(dir, "snapshot.snap"))
	if err != nil {
		return 0, 0, err
	}
	return snapshot, fi.Size(), nil
}

var listenLine = regexp.MustCompile(`phomd listening on (\S+)`)

// logTap collects the child's stderr (bounded) and announces the
// address phomd logs once its listener is bound — the child picks its
// own free port, so no port is reserved and released in a race.
type logTap struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (t *logTap) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buf.Len() < 64<<10 {
		t.buf.Write(p)
	}
	if !t.sent {
		if m := listenLine.FindSubmatch(t.buf.Bytes()); m != nil {
			t.sent = true
			t.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (t *logTap) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// child is one running phomd process.
type child struct {
	cmd    *exec.Cmd
	url    string
	log    *logTap
	client *http.Client
	exited chan struct{}
	// bootReady is exec → first 200 on /readyz.
	bootReady time.Duration
	started   time.Time
}

// startChild executes phomd on the store directory and waits for
// /readyz to answer 200.
func startChild(bin, storeDir string, flags []string) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-store", storeDir}, flags...)
	tap := &logTap{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = tap
	c := &child{
		cmd: cmd, log: tap, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}},
	}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.Store(c)
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(c.exited)
	}()
	deadline := time.After(60 * time.Second)
	select {
	case addr := <-tap.addr:
		c.url = "http://" + addr
	case <-c.exited:
		return nil, fmt.Errorf("phomd exited during boot:\n%s", tap)
	case <-deadline:
		c.kill()
		return nil, fmt.Errorf("phomd did not bind within 60s:\n%s", tap)
	}
	for {
		resp, err := c.client.Get(c.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.bootReady = time.Since(c.started)
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("phomd exited during boot:\n%s", tap)
		case <-deadline:
			c.kill()
			return nil, fmt.Errorf("phomd not ready within 60s:\n%s", tap)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill is kill -9: no graceful shutdown, no final fsync. It returns
// once the process has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
	live.CompareAndSwap(c, nil)
	c.client.CloseIdleConnections()
}

// ticksPerSecond is the kernel's USER_HZ, which /proc reports CPU time
// in. It is 100 on every Linux architecture Go supports.
const ticksPerSecond = 100

// procCPUMS reads utime+stime of a process from /proc/<pid>/stat.
func procCPUMS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (utime + stime) * 1000 / ticksPerSecond, nil
}

func (c *child) cpuMS() (float64, error) { return procCPUMS(c.cmd.Process.Pid) }

// peakRSSMB reads the child's VmHWM.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found")
}

// counters is one scrape of the child's /v1/stats and /metrics.
type counters struct {
	stats httpapi.StatsResponse
	// histogram _sum and _count by family name.
	sum, count map[string]float64
}

func (c *child) scrape() (counters, error) {
	out := counters{sum: map[string]float64{}, count: map[string]float64{}}
	if err := c.getJSON("/v1/stats", &out.stats); err != nil {
		return out, err
	}
	resp, err := c.client.Get(c.url + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	fams, err := metrics.Parse(resp.Body)
	if err != nil {
		return out, fmt.Errorf("/metrics: %w", err)
	}
	for name, f := range fams {
		if f.Type != "histogram" {
			continue
		}
		for _, s := range f.Samples {
			switch s.Name {
			case name + "_sum":
				out.sum[name] += s.Value
			case name + "_count":
				out.count[name] += s.Value
			}
		}
	}
	return out, nil
}

func (c *child) getJSON(path string, dst any) error {
	resp, err := c.client.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// graphSize asks the child for one graph's node and edge counts.
func (c *child) graphSize(name string) (nodes, edges int, err error) {
	var d httpapi.GraphDetailResponse
	if err := c.getJSON("/v1/graphs/"+name, &d); err != nil {
		return 0, 0, err
	}
	return d.Nodes, d.Edges, nil
}
