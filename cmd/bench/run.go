package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// sample is one completed request of a round. The response body is
// kept raw and decoded after the round, off the clock.
type sample struct {
	op     *op
	lat    time.Duration
	status int // 0 = transport error
	body   []byte
}

// roundResult is what one replay of the sequence measured.
type roundResult struct {
	wall     time.Duration
	childCPU float64 // ms of child utime+stime
	genCPU   float64 // ms of this process' utime+stime
	samples  [clients][]sample
}

// driver owns the connections and the patch cursors that persist
// across rounds.
type driver struct {
	c       *child
	w       *workload
	client  *http.Client
	cursors [clients]int
}

func newDriver(c *child, w *workload) *driver {
	return &driver{c: c, w: w, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// do sends one request and reads the whole answer.
func (d *driver) do(o *op) sample {
	start := time.Now()
	req, err := http.NewRequest(o.method, d.c.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		return sample{op: o}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return sample{op: o, lat: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return sample{op: o, lat: lat}
	}
	return sample{op: o, lat: lat, status: resp.StatusCode, body: body}
}

// replay runs the first limit slots of each client's sequence (wrapping
// around when limit exceeds it) concurrently, one request in flight per
// client, and returns when both are done. With patches false, patch
// slots are skipped (warm-up must leave the store as prepared, so that
// every boot starts from the same state).
func (d *driver) replay(limit int, patches bool) (roundResult, error) {
	var res roundResult
	var wg sync.WaitGroup
	cpu0, err := d.c.cpuMS()
	if err != nil {
		return res, err
	}
	gen0, err := procCPUMS(os.Getpid())
	if err != nil {
		return res, err
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			slots := d.w.seq[c]
			out := make([]sample, 0, limit)
			for k := 0; k < limit; k++ {
				sl := slots[k%len(slots)]
				o := sl.read
				if sl.patch {
					if !patches {
						continue
					}
					o = d.w.patches[c][d.cursors[c]]
					d.cursors[c]++
				}
				out = append(out, d.do(o))
			}
			res.samples[c] = out
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	cpu1, err := d.c.cpuMS()
	if err != nil {
		return res, err
	}
	gen1, err := procCPUMS(os.Getpid())
	if err != nil {
		return res, err
	}
	res.childCPU, res.genCPU = cpu1-cpu0, gen1-gen0
	return res, nil
}

// setupOnce is one measurement of setup_s: exec phomd on the prepared
// store, wait for /readyz, replay the fixed warm-up. The child is left
// running for the caller to use or kill.
func setupOnce(bin, storeDir string, w *workload) (*child, *driver, time.Duration, error) {
	c, err := startChild(bin, storeDir, w.phomdFlags())
	if err != nil {
		return nil, nil, 0, err
	}
	d := newDriver(c, w)
	warm, err := d.replay(w.warmup, false)
	if err != nil {
		c.kill()
		return nil, nil, 0, err
	}
	for _, ss := range warm.samples {
		for _, s := range ss {
			if s.status != http.StatusOK {
				c.kill()
				return nil, nil, 0, fmt.Errorf("warm-up %s %s answered %d: %s", s.op.method, s.op.path, s.status, s.body)
			}
		}
	}
	return c, d, time.Since(c.started), nil
}
