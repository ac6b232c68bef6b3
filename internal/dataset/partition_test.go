package dataset

import (
	"errors"
	"testing"
	"testing/quick"
)

func syntheticForPartition(t *testing.T, samples int) *Dataset {
	t.Helper()
	cfg := QuickSyntheticConfig()
	cfg.Samples = samples
	cfg.Side = 4 // tiny features; partition tests don't train
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return d
}

func TestIIDPartitionCoversAllSamples(t *testing.T) {
	d := syntheticForPartition(t, 100)
	shards, err := IIDPartitioner{Seed: 1}.Partition(d, 7)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != d.Len() {
		t.Errorf("shards hold %d samples, want %d", total, d.Len())
	}
}

func TestIIDPartitionBalanced(t *testing.T) {
	d := syntheticForPartition(t, 100)
	shards, err := IIDPartitioner{Seed: 1}.Partition(d, 10)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for i, s := range shards {
		if s.Len() != 10 {
			t.Errorf("shard %d size = %d, want 10", i, s.Len())
		}
	}
}

func TestIIDPartitionNearUniformClasses(t *testing.T) {
	d := syntheticForPartition(t, 1000)
	shards, err := IIDPartitioner{Seed: 2}.Partition(d, 5)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for i, s := range shards {
		counts := classCounts(s)
		want := s.Len() / d.Classes
		for c, n := range counts {
			if n < want/2 || n > want*2 {
				t.Errorf("shard %d class %d count = %d, want ≈%d", i, c, n, want)
			}
		}
	}
}

func TestIIDPartitionDeterministic(t *testing.T) {
	d := syntheticForPartition(t, 60)
	a, _ := IIDPartitioner{Seed: 9}.Partition(d, 4)
	b, _ := IIDPartitioner{Seed: 9}.Partition(d, 4)
	for s := range a {
		if a[s].Len() != b[s].Len() {
			t.Fatal("same seed must give same shard sizes")
		}
		for i := range a[s].Labels {
			if a[s].Labels[i] != b[s].Labels[i] {
				t.Fatal("same seed must give identical shards")
			}
		}
	}
}

func TestLabelSkewAlphaZeroIsLegal(t *testing.T) {
	d := syntheticForPartition(t, 200)
	shards, err := LabelSkewPartitioner{Alpha: 0, Seed: 1}.Partition(d, 4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != d.Len() {
		t.Errorf("alpha=0 shards hold %d, want %d", total, d.Len())
	}
}

func TestLabelSkewConcentratesHomeClass(t *testing.T) {
	d := syntheticForPartition(t, 1000)
	shards, err := LabelSkewPartitioner{Alpha: 0.8, Seed: 3}.Partition(d, 10)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for s, shard := range shards {
		home := s % d.Classes
		counts := classCounts(shard)
		frac := float64(counts[home]) / float64(shard.Len())
		if frac < 0.5 {
			t.Errorf("shard %d home-class fraction = %.2f, want >= 0.5", s, frac)
		}
	}
}

func TestLabelSkewRejectsBadAlpha(t *testing.T) {
	d := syntheticForPartition(t, 100)
	for _, alpha := range []float64{-0.1, 1.1} {
		if _, err := (LabelSkewPartitioner{Alpha: alpha}).Partition(d, 2); err == nil {
			t.Errorf("alpha %v must be rejected", alpha)
		}
	}
}

func TestLabelSkewCoversAllSamples(t *testing.T) {
	d := syntheticForPartition(t, 500)
	shards, err := LabelSkewPartitioner{Alpha: 0.5, Seed: 4}.Partition(d, 7)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != d.Len() {
		t.Errorf("shards hold %d samples, want %d", total, d.Len())
	}
}

func TestEqualShards(t *testing.T) {
	d := syntheticForPartition(t, 103)
	shards, err := EqualShards(d, 10, 5)
	if err != nil {
		t.Fatalf("EqualShards: %v", err)
	}
	if len(shards) != 10 {
		t.Fatalf("got %d shards, want 10", len(shards))
	}
	for i, s := range shards {
		if s.Len() != 10 {
			t.Errorf("shard %d size = %d, want 10 (remainder truncated)", i, s.Len())
		}
	}
}

func TestEqualShardsDisjoint(t *testing.T) {
	d := syntheticForPartition(t, 100)
	// Tag each row with its index so disjointness is checkable.
	for i := 0; i < d.Len(); i++ {
		d.X.Set(i, 0, float64(i))
	}
	shards, err := EqualShards(d, 4, 6)
	if err != nil {
		t.Fatalf("EqualShards: %v", err)
	}
	seen := make(map[int]bool)
	for _, s := range shards {
		for i := 0; i < s.Len(); i++ {
			id := int(s.X.At(i, 0))
			if seen[id] {
				t.Fatalf("sample %d appears in two shards", id)
			}
			seen[id] = true
		}
	}
}

func TestPartitionArgErrors(t *testing.T) {
	d := syntheticForPartition(t, 10)
	if _, err := (IIDPartitioner{}).Partition(&Dataset{}, 2); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty dataset = %v, want ErrEmpty", err)
	}
	if _, err := (IIDPartitioner{}).Partition(d, 0); err == nil {
		t.Error("0 servers must error")
	}
	if _, err := (IIDPartitioner{}).Partition(d, 11); err == nil {
		t.Error("more servers than samples must error")
	}
	if _, err := EqualShards(d, 11, 0); err == nil {
		t.Error("EqualShards with more servers than samples must error")
	}
}

// Property: IID partitioning never loses or duplicates samples for any
// server count that divides into the dataset.
func TestIIDPartitionConservationProperty(t *testing.T) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 120
	cfg.Side = 3
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for i := 0; i < d.Len(); i++ {
		d.X.Set(i, 0, float64(i))
	}
	f := func(seed uint64, serversRaw uint8) bool {
		servers := 1 + int(serversRaw%20)
		shards, err := IIDPartitioner{Seed: seed}.Partition(d, servers)
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, s := range shards {
			for i := 0; i < s.Len(); i++ {
				seen[int(s.X.At(i, 0))]++
			}
		}
		if len(seen) != d.Len() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
