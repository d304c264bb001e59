package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

// TestDecodeGraphRejectsImplausibleCounts feeds the graph decoder counts
// no payload of its length can hold: they must come back as corruption,
// not as an allocation sized by the count.
func TestDecodeGraphRejectsImplausibleCounts(t *testing.T) {
	threeNodes := []byte{graphCodecVersion, 3}
	for _, label := range []string{"a", "b", "c"} {
		e := &enc{}
		e.str(label)
		e.f64(1)
		e.str("")
		threeNodes = append(threeNodes, e.buf...)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"huge node count", binary.AppendUvarint([]byte{graphCodecVersion}, 1<<28)},
		{"huge edge count", append(binary.AppendUvarint(threeNodes, 1<<28), 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeGraph(&dec{buf: tc.payload})
			if !IsCorrupt(err) {
				t.Fatalf("decodeGraph = %v, want a corrupt-record error", err)
			}
		})
	}
}

// FuzzDecodeNamedGraph throws arbitrary bytes at the graph codec that
// snapshots, WAL register records and replication bootstrap frames
// share. Each input is either rejected with an error or decodes to a
// finished graph — rows strictly ascending, both directions holding
// NumEdges entries — whose encoding is a fixed point of decode+encode
// (inputs the encoder would not write, such as unsorted or repeated
// edges or zero weights, decode to their normal form first).
func FuzzDecodeNamedGraph(f *testing.F) {
	f.Add(EncodeNamedGraph("empty", graph.New(0)))
	f.Add(EncodeNamedGraph("loop", graph.FromEdgeList([]string{"a", "b"}, [][2]int{{0, 0}, {0, 1}, {1, 0}})))
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 10, Versions: 1, Seed: 1})
	f.Add(EncodeNamedGraph("site", arch.Versions[0]))
	f.Fuzz(func(t *testing.T, payload []byte) {
		name, g, err := DecodeNamedGraph(payload)
		if err != nil {
			return
		}
		post, prev := 0, 0
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			for _, row := range [][]graph.NodeID{g.Post(v), g.Prev(v)} {
				for i := 1; i < len(row); i++ {
					if row[i] <= row[i-1] {
						t.Fatalf("row of node %d not strictly ascending: %v", v, row)
					}
				}
			}
			post += len(g.Post(v))
			prev += len(g.Prev(v))
		}
		if post != g.NumEdges() || prev != g.NumEdges() {
			t.Fatalf("rows hold %d post and %d prev entries, NumEdges %d", post, prev, g.NumEdges())
		}
		enc := EncodeNamedGraph(name, g)
		name2, g2, err := DecodeNamedGraph(enc)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if again := EncodeNamedGraph(name2, g2); !bytes.Equal(again, enc) {
			t.Fatal("decode+encode is not a fixed point")
		}
	})
}

// TestEncodeNamedGraphRoundTrip pins the byte-exact round trip of the
// fuzz seeds, which the encoder itself wrote.
func TestEncodeNamedGraphRoundTrip(t *testing.T) {
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 10, Versions: 1, Seed: 1})
	for _, g := range []*graph.Graph{
		graph.New(0),
		graph.FromEdgeList([]string{"a", "b"}, [][2]int{{0, 0}, {0, 1}, {1, 0}}),
		arch.Versions[0],
	} {
		payload := EncodeNamedGraph("g", g)
		_, got, err := DecodeNamedGraph(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(got, g) {
			t.Fatalf("%v decoded as %v", g, got)
		}
		if re := EncodeNamedGraph("g", got); !bytes.Equal(re, payload) {
			t.Fatalf("%v does not re-encode to the same bytes", g)
		}
	}
}

// BenchmarkDecodeGraph decodes the payload of a 100k-node GenerateLarge
// graph, the graph record a deep_match-shaped snapshot holds.
func BenchmarkDecodeGraph(b *testing.B) {
	payload := EncodeNamedGraph("web", syngen.GenerateLarge(syngen.LargeConfig{Nodes: 100000, Seed: 1}))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeNamedGraph(payload); err != nil {
			b.Fatal(err)
		}
	}
}
