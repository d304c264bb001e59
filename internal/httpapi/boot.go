package httpapi

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Boot-time admission: while the engine replays its store, phomd serves
// a placeholder handler that answers 503 to everything except liveness.
// The Retry-After it attaches is not a constant — it is derived from
// the replay's observed progress, so a client (or load balancer)
// retries once when the boot is nearly done instead of hammering a
// 30-second replay every second.

// Retry-After bounds for the boot handler: never tell a client to come
// back sooner than bootRetryMin (a fresh estimate is noise) or later
// than bootRetryMax (an early overestimate must not park clients long
// after the boot finished).
const (
	bootRetryMin = 1 * time.Second
	bootRetryMax = 30 * time.Second
)

// ReplayEstimator turns replay progress callbacks into a Retry-After
// estimate. Feed it Options.ReplayProgress from engine.Open; ask it
// RetryAfter while the placeholder handler is serving. Safe for
// concurrent use — the replay goroutine observes while request
// goroutines estimate.
type ReplayEstimator struct {
	mu    sync.Mutex
	now   func() time.Time // injectable for tests
	start time.Time        // first observation; zero until then
	done  int
	total int
}

// NewReplayEstimator returns an estimator using the wall clock.
func NewReplayEstimator() *ReplayEstimator {
	return &ReplayEstimator{now: time.Now}
}

// Observe records replay progress. It has the engine's ReplayProgress
// signature, so wire it directly: Options{ReplayProgress: est.Observe}.
func (e *ReplayEstimator) Observe(done, total int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.start.IsZero() {
		e.start = e.now()
	}
	e.done = done
	e.total = total
}

// RetryAfter estimates the remaining replay time from the observed
// rate (done items over elapsed time), rounded up to whole seconds and
// clamped to [1s, 30s]. Before any progress has been observed — or
// before the rate is measurable — it returns the minimum: with no
// evidence of a long boot, the cheap guess is "soon".
func (e *ReplayEstimator) RetryAfter() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.start.IsZero() || e.done <= 0 || e.total <= e.done {
		return bootRetryMin
	}
	elapsed := e.now().Sub(e.start)
	if elapsed <= 0 {
		return bootRetryMin
	}
	rate := float64(e.done) / elapsed.Seconds() // items per second
	remaining := time.Duration(float64(e.total-e.done) / rate * float64(time.Second))
	est := time.Duration(math.Ceil(remaining.Seconds())) * time.Second
	if est < bootRetryMin {
		return bootRetryMin
	}
	if est > bootRetryMax {
		return bootRetryMax
	}
	return est
}

// Booting returns the placeholder handler served while the engine
// replays: GET /healthz answers 200 (the process is alive and making
// progress), everything else answers 503 with a Retry-After derived
// from est. A nil est degrades to the constant minimum.
func Booting(est *ReplayEstimator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "booting"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		retry := bootRetryMin
		if est != nil {
			retry = est.RetryAfter()
		}
		w.Header().Set("Retry-After", formatSeconds(retry))
		WriteJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "booting: store replay in progress"})
	})
	return mux
}

// formatSeconds renders a duration as the integral second count
// Retry-After requires.
func formatSeconds(d time.Duration) string {
	s := int64(d / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}
