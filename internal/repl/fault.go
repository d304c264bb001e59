package repl

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// The fault-injection harness. FaultTransport wraps an http.Transport
// and sabotages replication streams deterministically — refuse the
// connection, cut the body mid-record, flip bytes so checksums fail,
// or stall the stream silently — so tests can prove the follower's
// recovery machinery (CRC validation, seq contiguity, backoff, stall
// detection, resync) against every failure the wire can produce. It
// lives in the package proper, not a _test file, because a test in
// another package injects it: internal/engine's fault quickcheck,
// TestFollowerFaultQuickCheck.

// Fault sabotages one connection. The zero value is a healthy link.
type Fault struct {
	// Refuse fails the round trip outright, like a connection refused.
	Refuse bool
	// CutAfter closes the stream after n body bytes (0 = never): a
	// torn record mid-flight.
	CutAfter int64
	// CorruptAt XOR-flips the byte at offset n-1 (0 = off): framing
	// survives, the CRC does not.
	CorruptAt int64
	// StallAfter stops returning data after n bytes without closing
	// (0 = off): a hung-but-open TCP link only a stall detector
	// catches.
	StallAfter int64
}

// FaultTransport injects Plan(conn)'s fault into each successive
// connection (conn counts from 0). Safe for concurrent use.
type FaultTransport struct {
	// Base performs the real round trip; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// Plan chooses the fault for the nth connection.
	Plan func(conn int) Fault

	mu   sync.Mutex
	conn int
}

// Connections reports how many round trips were attempted.
func (t *FaultTransport) Connections() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conn
}

func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	n := t.conn
	t.conn++
	t.mu.Unlock()
	var fault Fault
	if t.Plan != nil {
		fault = t.Plan(n)
	}
	if fault.Refuse {
		return nil, fmt.Errorf("repl: injected connection refused (conn %d)", n)
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if fault == (Fault{}) {
		return resp, nil
	}
	resp.Body = &faultBody{rc: resp.Body, fault: fault, ctx: req.Context(), closed: make(chan struct{})}
	return resp, nil
}

// faultBody applies a Fault to a response body byte stream.
type faultBody struct {
	rc    io.ReadCloser
	fault Fault
	ctx   context.Context
	off   int64

	mu     sync.Mutex
	closed chan struct{}
	done   bool
}

func (b *faultBody) Read(p []byte) (int, error) {
	f := b.fault
	if f.CutAfter > 0 && b.off >= f.CutAfter {
		return 0, io.ErrUnexpectedEOF
	}
	if f.StallAfter > 0 && b.off >= f.StallAfter {
		// Hang like a dead link: no data, no error, until the caller
		// gives up (stall detector cancels the request or closes us).
		select {
		case <-b.ctx.Done():
			return 0, b.ctx.Err()
		case <-b.closed:
			return 0, io.ErrClosedPipe
		}
	}
	// Trim the read so a fault boundary lands exactly where scheduled.
	max := int64(len(p))
	if f.CutAfter > 0 && b.off+max > f.CutAfter {
		max = f.CutAfter - b.off
	}
	if f.StallAfter > 0 && b.off+max > f.StallAfter {
		max = f.StallAfter - b.off
	}
	n, err := b.rc.Read(p[:max])
	if f.CorruptAt > 0 && b.off < f.CorruptAt && f.CorruptAt <= b.off+int64(n) {
		p[f.CorruptAt-1-b.off] ^= 0x40
	}
	b.off += int64(n)
	return n, err
}

func (b *faultBody) Close() error {
	b.mu.Lock()
	if !b.done {
		b.done = true
		close(b.closed)
	}
	b.mu.Unlock()
	return b.rc.Close()
}
