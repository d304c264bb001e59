//go:build !race

package engine

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"graphmatch/internal/graph"
)

// TestSnapshotBootBeatsColdRegister is the restart gate of the store:
// booting the 110-graph fleet from a snapshot plus a 50-patch WAL tail
// must hold every name and beat re-registering the fleet from JSON.
// Both build every closure, so this pits the binary codec against
// encoding/json. It times both boots, hence the build tag.
func TestSnapshotBootBeatsColdRegister(t *testing.T) {
	names, graphs, _ := webFleet()
	opts := Options{MaxClosures: len(graphs) + 8, StorePath: t.TempDir()}
	ctx := context.Background()
	durable, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	encoded := make([]bytes.Buffer, len(graphs))
	for i, g := range graphs {
		if err := g.WriteJSON(&encoded[i]); err != nil {
			t.Fatal(err)
		}
		if err := durable.Register(ctx, names[i], g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := durable.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p := &graph.Patch{
			AddNodes: []graph.Node{{Label: "patched", Weight: 1, Content: "live patch after the snapshot"}},
			AddEdges: [][2]graph.NodeID{{0, graph.NodeID(graphs[i].NumNodes())}},
		}
		if _, err := durable.ApplyPatch(ctx, names[i], p); err != nil {
			t.Fatal(err)
		}
	}
	durable.Close()

	start := time.Now()
	cold := New(Options{MaxClosures: opts.MaxClosures})
	defer cold.Close()
	for i := range encoded {
		g, err := graph.ReadJSON(&encoded[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Register(ctx, names[i], g); err != nil {
			t.Fatal(err)
		}
	}
	coldTook := time.Since(start)

	start = time.Now()
	booted, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	bootTook := time.Since(start)
	defer booted.Close()
	slices.Sort(names)
	if got := booted.Catalog().Names(); !slices.Equal(got, names) {
		t.Fatalf("booted catalog holds %d names, want all %d", len(got), len(names))
	}
	t.Logf("%d graphs: snapshot + WAL boot %v, cold JSON register %v (%.1f×)", len(names), bootTook, coldTook, float64(coldTook)/float64(bootTook))
	if bootTook >= coldTook {
		t.Fatalf("snapshot + WAL boot took %v, cold JSON register %v", bootTook, coldTook)
	}
}
