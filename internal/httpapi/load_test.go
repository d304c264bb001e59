//go:build !race

package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/engine"
)

// TestShedAtFiveTimesPendingBound is the overload gate: under phomd's
// admission bound (queue + workers), five times that many slow matches
// go through the handler at once. Excess load must turn into 429s with
// Retry-After, not into a latency collapse: some requests are served,
// each within a second. It times requests, hence the build tag.
func TestShedAtFiveTimesPendingBound(t *testing.T) {
	e := engine.New(engine.Options{Workers: 2, MaxPending: -1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(160))
	body, _ := json.Marshal(slowMatchBody())

	const n = 5 * (4*2 + 2) // the default bound of 2 workers: a queue of 4 per worker, plus the workers
	codes := make([]int, n)
	retryAfter := make([]string, n)
	took := make([]time.Duration, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i], retryAfter[i], took[i] = resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(t0)
		}()
	}
	close(start)
	wg.Wait()

	var shed, served int
	var slowest time.Duration
	for i, code := range codes {
		switch code {
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
		case http.StatusOK:
			served++
			slowest = max(slowest, took[i])
		default:
			t.Errorf("request %d: status %d", i, code)
		}
	}
	t.Logf("%d concurrent slow matches: %d shed, %d served, slowest served in %v", n, shed, served, slowest)
	if shed == 0 || served == 0 {
		t.Fatalf("%d shed and %d served of %d; want both non-zero", shed, served, n)
	}
	if slowest >= time.Second {
		t.Fatalf("slowest served request took %v, bound 1s", slowest)
	}
}
