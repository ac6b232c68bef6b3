package fl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"eefei/internal/ml"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// roundCoreGoldenPath pins every RoundRecord / AsyncUpdate field (floats as
// IEEE-754 bits) and the final weights of the in-process engines, so a
// refactor of the round loop can prove it trains the same bits.
const roundCoreGoldenPath = "testdata/round_core_golden.json"

type goldenRun struct {
	Name    string   `json:"name"`
	Records []string `json:"records"`
	// Weights is the SHA-256 of the final global model's ml serialization.
	Weights string `json:"weights_sha256"`
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func bitsList(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = bits(f)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func weightsDigest(m *ml.Model) string {
	sum := sha256.Sum256(m.AppendBinary(nil))
	return hex.EncodeToString(sum[:])
}

func describeRound(r RoundRecord) string {
	return fmt.Sprintf("round=%d selected=%v train_loss=%s test_acc=%s lr=%s local=%s dropped=%v rejoins=%d retries=%d down=%d up=%d down_att=%d down_del=%d up_att=%d up_del=%d",
		r.Round, r.Selected, bits(r.TrainLoss), bits(r.TestAccuracy), bits(r.LearningRate),
		bitsList(r.LocalLosses), r.Dropped, r.Rejoins, r.Retries, r.DownlinkBytes, r.UplinkBytes,
		r.DownlinkAttemptBytes, r.DownlinkDeliveredBytes, r.UplinkAttemptBytes, r.UplinkDeliveredBytes)
}

func describeAsync(u AsyncUpdate) string {
	return fmt.Sprintf("step=%d client=%d staleness=%d applied=%t mix=%s at=%s train_loss=%s test_acc=%s",
		u.Step, u.Client, u.Staleness, u.Applied, bits(u.MixWeight), bits(u.At),
		bits(u.TrainLoss), bits(u.TestAccuracy))
}

// TestRoundCoreGolden checks the synchronous Engine (full batch, and
// mini-batch FedProx) at training pools {1, 4} and the AsyncEngine at pools
// {1, 4} with staleness drops against roundCoreGoldenPath. Regenerate (only
// for an intended numeric change) with -update.
func TestRoundCoreGolden(t *testing.T) {
	shards, test := quickShards(t, 10)
	var got []goldenRun
	for _, v := range []struct {
		name  string
		batch int
		mu    float64
	}{{"full", 0, 0}, {"minibatch-prox", 16, 0.1}} {
		for _, workers := range []int{1, 4} {
			cfg := quickConfig()
			cfg.BatchSize, cfg.ProximalMu = v.batch, v.mu
			e, err := NewEngine(cfg, shards, WithTestSet(test), WithParallelism(workers))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			recs, err := e.Run(MaxRounds(4))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			run := goldenRun{Name: fmt.Sprintf("engine/%s/workers=%d", v.name, workers), Weights: weightsDigest(e.Global())}
			for _, r := range recs {
				run.Records = append(run.Records, describeRound(r))
			}
			got = append(got, run)
		}
	}
	for _, workers := range []int{1, 4} {
		cfg := asyncQuickConfig()
		cfg.MaxStaleness = 4
		e, err := NewAsyncEngine(cfg, shards, test, WithAsyncParallelism(workers), WithAsyncEvalParallelism(workers))
		if err != nil {
			t.Fatalf("NewAsyncEngine: %v", err)
		}
		ups, err := e.Run(MaxAsyncSteps(30))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		run := goldenRun{Name: fmt.Sprintf("async/workers=%d", workers), Weights: weightsDigest(e.Global())}
		drops := 0
		for _, u := range ups {
			run.Records = append(run.Records, describeAsync(u))
			if !u.Applied {
				drops++
			}
		}
		if drops == 0 {
			t.Errorf("async workers=%d: golden must cover the staleness-drop path", workers)
		}
		got = append(got, run)
	}
	checkGolden(t, roundCoreGoldenPath, got)
}

// checkGolden compares runs against the golden file at path, or rewrites it
// under -update.
func checkGolden(t *testing.T, path string, got []goldenRun) {
	t.Helper()
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || len(g.Records) != len(w.Records) {
			t.Errorf("run %d: %s with %d records, golden %s with %d", i, g.Name, len(g.Records), w.Name, len(w.Records))
			continue
		}
		for r := range w.Records {
			if g.Records[r] != w.Records[r] {
				t.Errorf("%s record %d:\n got    %s\n golden %s", w.Name, r, g.Records[r], w.Records[r])
			}
		}
		if g.Weights != w.Weights {
			t.Errorf("%s: final weights differ from the golden", w.Name)
		}
	}
}
