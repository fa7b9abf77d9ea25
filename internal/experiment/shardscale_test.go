package experiment

import "testing"

// TestShardScaleEquivalenceGate runs the shard-scaling experiment at 2, 4
// and 8 shards: ShardScale itself errors out if any sharded run diverges
// from the sequential engine, so a nil error here certifies bit-identity.
// A deterministic fake clock stands in for the wall clock this
// virtual-time package must not read itself.
func TestShardScaleEquivalenceGate(t *testing.T) {
	fid := Fidelity{Queries: 3000, Warmup: 200, MinSamples: 1, LoadTol: 0.02, Seed: 3}
	var ticks float64
	clock := func() float64 { ticks++; return ticks }
	tab, err := ShardScale(fid, 128, []int{2, 4, 8}, clock)
	if err != nil {
		t.Fatalf("ShardScale: %v", err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows (sequential + 3 shard counts), got %d", len(tab.Rows))
	}
	for i, row := range tab.Rows[1:] {
		if got := row[len(row)-1]; got != "yes" {
			t.Errorf("row %d identical column = %q, want \"yes\"", i+1, got)
		}
	}
	for i, raw := range tab.Raw {
		if raw["wall_s"] <= 0 || raw["tasks/s"] <= 0 || raw["speedup"] <= 0 {
			t.Errorf("row %d raw metrics not positive: %v", i, raw)
		}
	}
}

// TestShardScaleNilClock: without an injected clock the table is fully
// deterministic — the measurement columns render as "-" and the raw maps
// stay empty, but the equivalence gate still runs.
func TestShardScaleNilClock(t *testing.T) {
	fid := Fidelity{Queries: 1500, Warmup: 100, MinSamples: 1, LoadTol: 0.02, Seed: 5}
	tab, err := ShardScale(fid, 128, []int{2}, nil)
	if err != nil {
		t.Fatalf("ShardScale: %v", err)
	}
	for i, row := range tab.Rows {
		if row[1] != "-" || row[2] != "-" || row[3] != "-" {
			t.Errorf("row %d has measurements without a clock: %v", i, row)
		}
		if len(tab.Raw[i]) != 0 {
			t.Errorf("row %d raw not empty without a clock: %v", i, tab.Raw[i])
		}
	}
	if got := tab.Rows[1][len(tab.Rows[1])-1]; got != "yes" {
		t.Errorf("identical column = %q, want \"yes\"", got)
	}
}
