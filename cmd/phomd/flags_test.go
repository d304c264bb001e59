package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags covers every mode check phomd makes at startup:
// contradictory modes, and mode-scoped flags given outside their mode,
// which would otherwise be ignored without a word.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-store", "d", "-snapshot-every", "10"}, ""},
		{[]string{"-store", "d", "-follow", "http://p", "-ready-max-lag", "5"}, ""},
		{[]string{"-router", "-shards", "s0=http://a", "-route-max-lag", "3"}, ""},
		{[]string{"-router", "-ring", "ring.json"}, ""},
		{[]string{"-load", "g=g.json", "-store", "d"}, ""},

		{[]string{"-router", "-shards", "s0=http://a", "-store", "d"}, "-router is stateless"},
		{[]string{"-router", "-shards", "s0=http://a", "-follow", "http://p"}, "-router is stateless"},
		{[]string{"-router", "-shards", "s0=http://a", "-load", "g=g.json"}, "-router is stateless"},
		{[]string{"-router", "-shards", "s0=http://a", "-ring", "ring.json"}, "mutually exclusive"},
		{[]string{"-router"}, "-router needs -shards"},
		{[]string{"-shards", "s0=http://a"}, "-shards/-ring need -router"},
		{[]string{"-ring", "ring.json"}, "-shards/-ring need -router"},
		{[]string{"-follow", "http://p"}, "-follow requires -store"},
		{[]string{"-store", "d", "-follow", "http://p", "-load", "g=g.json"}, "-load conflicts with -follow"},

		{[]string{"-route-max-lag", "3"}, "-route-max-lag needs -router"},
		{[]string{"-store", "d", "-ready-max-lag", "5"}, "-ready-max-lag needs -follow"},
		{[]string{"-ready-max-lag", "0"}, "-ready-max-lag needs -follow"},
		{[]string{"-snapshot-every", "10"}, "-snapshot-every needs -store"},
		{[]string{"-snapshot-every", "1000"}, "-snapshot-every needs -store"},

		// The queue depth is derived from the worker count; there is
		// no flag for it.
		{[]string{"-queue", "8"}, "flag provided but not defined: -queue"},
		// A batch is capped at httpapi.MaxBatch items; there is no flag
		// for it.
		{[]string{"-max-batch", "8"}, "flag provided but not defined: -max-batch"},
	} {
		fs := flag.NewFlagSet("phomd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%q accepted, want an error containing %q", tc.args, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%q: error %q, want it to contain %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestFlagDefaults pins that a phomd started without flags resolves the
// serving defaults: admission at queue depth + workers, store snapshots
// every 1000 mutations, the 30 s request deadline and the exact-decide
// pattern bound.
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("phomd", flag.ContinueOnError)
	f, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.maxPending != -1 || f.snapshotEvery != 1000 || f.requestTimeout.Seconds() != 30 || f.maxExact != 16 {
		t.Errorf("defaults drifted: %+v", *f)
	}
}
