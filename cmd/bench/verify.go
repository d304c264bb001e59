package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"

	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/simmatrix"
)

// verifier checks the child's answers against the benchmark's own copy
// of every graph. It runs between rounds, off the clock, walking each
// client's samples in the order they were acknowledged — clients own
// disjoint graphs, so that order is each graph's true history.
type verifier struct {
	w       *workload
	replica map[string]*graph.Graph
	reach   map[string]*closure.Reach // dropped when the replica is patched

	reads int // match/search responses seen, for the verification stride
	// sampled holds the first round's every verifyEvery-th search, to be
	// compared with a brute-force scan once the rounds are over.
	sampled []sample

	qualitySum float64
	qualityN   int

	attempted      int
	badStatus      int // non-2xx answers and transport errors
	checkFailures  int // CheckMapping / qualCard / patch-size disagreements
	topkMismatches int
	lostWrites     int
	failures       []string // first few, for the report
}

func newVerifier(w *workload) *verifier {
	v := &verifier{w: w, replica: map[string]*graph.Graph{}, reach: map[string]*closure.Reach{}}
	for name, g := range w.graphs {
		v.replica[name] = g
	}
	return v
}

func (v *verifier) fail(format string, args ...any) {
	if len(v.failures) < 10 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

func (v *verifier) failed() int {
	return v.badStatus + v.checkFailures + v.topkMismatches + v.lostWrites
}

// checkRound consumes one round's samples.
func (v *verifier) checkRound(res roundResult, firstRound bool) {
	for _, samples := range res.samples {
		for _, s := range samples {
			v.attempted++
			if s.status != http.StatusOK {
				v.badStatus++
				v.fail("%s %s answered %d: %s", s.op.method, s.op.path, s.status, bytes.TrimSpace(s.body))
				continue
			}
			switch s.op.kind {
			case opPatch:
				v.checkPatch(s)
			case opMatch:
				v.checkMatch(s)
			case opSearch:
				v.checkSearch(s, firstRound)
			}
		}
	}
}

// checkPatch applies an acknowledged patch to the replica and compares
// the size the server reports with the replica's.
func (v *verifier) checkPatch(s sample) {
	var resp httpapi.PatchResponse
	ng, err := v.replica[s.op.graph].ApplyPatch(s.op.patch)
	if err == nil {
		err = json.Unmarshal(s.body, &resp)
	}
	if err != nil {
		v.checkFailures++
		v.fail("patch %s: %v", s.op.graph, err)
		return
	}
	v.replica[s.op.graph] = ng
	delete(v.reach, s.op.graph)
	if resp.Nodes != ng.NumNodes() || resp.Edges != ng.NumEdges() {
		v.checkFailures++
		v.fail("patch %s: server reports %d nodes/%d edges, replica has %d/%d",
			s.op.graph, resp.Nodes, resp.Edges, ng.NumNodes(), ng.NumEdges())
	}
}

func (v *verifier) checkMatch(s sample) {
	var resp httpapi.MatchResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		v.checkFailures++
		v.fail("match %s: %v", s.op.graph, err)
		return
	}
	v.qualitySum += resp.QualCard
	v.qualityN++
	v.reads++
	if (v.reads-1)%v.w.verifyEvery != 0 {
		return
	}
	if err := v.certify(s.op, resp); err != nil {
		v.checkFailures++
		v.fail("match %s on %s: %v", s.op.algo, s.op.graph, err)
	}
}

// certify runs the paper's polynomial certificate (Theorem 4.1) on the
// returned mapping against the replica as of this request, and
// recomputes qualCard from it.
func (v *verifier) certify(o *op, resp httpapi.MatchResponse) error {
	g := v.replica[o.graph]
	r := v.reach[o.graph]
	if r == nil {
		r = closure.Compute(g)
		v.reach[o.graph] = r
	}
	in := core.NewInstance(o.pattern, g, simmatrix.NewLabelEquality(o.pattern, g), v.w.xi)
	in.SetReach(r)
	m := make(core.Mapping, len(resp.Mapping))
	for _, pr := range resp.Mapping {
		m[graph.NodeID(pr[0])] = graph.NodeID(pr[1])
	}
	if err := in.CheckMapping(m, strings.HasSuffix(o.algo, "11")); err != nil {
		return err
	}
	if resp.Matched != len(m) || resp.PatternNodes != o.pattern.NumNodes() {
		return fmt.Errorf("matched %d of %d, mapping has %d of %d", resp.Matched, resp.PatternNodes, len(m), o.pattern.NumNodes())
	}
	if q := in.QualCard(m); math.Abs(q-resp.QualCard) > 1e-12 {
		return fmt.Errorf("qual_card %v, recomputed %v", resp.QualCard, q)
	}
	return nil
}

func (v *verifier) checkSearch(s sample, firstRound bool) {
	var resp httpapi.SearchResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		v.checkFailures++
		v.fail("search: %v", err)
		return
	}
	// Mean qualSim over the ranked hits, not only the first: patterns are
	// skeletons of registered versions, so the top hit is the version
	// itself at qualSim 1 and carries no information.
	for _, h := range resp.Hits {
		v.qualitySum += h.QualSim
		v.qualityN++
	}
	v.reads++
	if firstRound && (v.reads-1)%v.w.verifyEvery == 0 {
		v.sampled = append(v.sampled, s)
	}
}

// checkTopK repeats the sampled searches as brute-force scans
// (no_prefilter) and compares the rankings.
func (v *verifier) checkTopK(d *driver) {
	for _, s := range v.sampled {
		var req httpapi.SearchRequest
		var pre, brute httpapi.SearchResponse
		if err := json.Unmarshal(s.op.body, &req); err != nil {
			panic(err) // the benchmark encoded this body itself
		}
		req.NoPrefilter, req.MinResemblance = true, nil
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		v.attempted++
		b := d.do(&op{kind: opSearch, method: "POST", path: s.op.path, body: body})
		if b.status != http.StatusOK {
			v.badStatus++
			v.fail("brute-force search answered %d: %s", b.status, bytes.TrimSpace(b.body))
			continue
		}
		err = json.Unmarshal(s.body, &pre)
		if err == nil {
			err = json.Unmarshal(b.body, &brute)
		}
		if err != nil || !slices.Equal(hitNames(pre), hitNames(brute)) {
			v.topkMismatches++
			v.fail("search top-k differs from brute force: %v vs %v (%v)", hitNames(pre), hitNames(brute), err)
		}
	}
}

func hitNames(r httpapi.SearchResponse) []string {
	names := make([]string, len(r.Hits))
	for i, h := range r.Hits {
		names[i] = h.Graph
	}
	return names
}

// checkDurability compares every graph of a child rebooted after
// kill -9 with the replica, which holds exactly the acknowledged
// patches.
func (v *verifier) checkDurability(c *child) {
	for _, name := range v.w.graphNames() {
		v.attempted++
		g := v.replica[name]
		n, e, err := c.graphSize(name)
		if err != nil || n != g.NumNodes() || e != g.NumEdges() {
			v.lostWrites++
			v.fail("after kill -9 %s has %d nodes/%d edges, acknowledged state has %d/%d (%v)",
				name, n, e, g.NumNodes(), g.NumEdges(), err)
		}
	}
}
