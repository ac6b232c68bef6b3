package flnet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"eefei/internal/ml"
)

// roundCoreGoldenPath pins the networked round: per-round selection, local
// losses, TrainLoss/TestAccuracy bits and frame bytes of a Quant8-down,
// Quant8-up TCP cluster at fleets {2, 4} plus its final weights, and the
// per-round datagram attempt/delivered counters of a 10%-loss fldgram run.
const roundCoreGoldenPath = "testdata/round_core_golden.json"

type roundGoldenRun struct {
	Name    string   `json:"name"`
	Records []string `json:"records"`
	// Weights is the SHA-256 of the final global model's ml serialization.
	Weights string `json:"weights_sha256,omitempty"`
}

func floatBits(fs ...float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(f))
	}
	return strings.Join(parts, " ")
}

// TestRoundCoreGolden checks the coordinator's round against
// roundCoreGoldenPath. Regenerate (only for an intended numeric or wire
// change) with -update.
func TestRoundCoreGolden(t *testing.T) {
	var got []roundGoldenRun
	for _, servers := range []int{2, 4} {
		coord, hist := residualCluster(t, servers, ml.Quant8, ml.Quant8, 4, nil)
		sum := sha256.Sum256(coord.Global().AppendBinary(nil))
		run := roundGoldenRun{Name: fmt.Sprintf("tcp-q8/servers=%d", servers), Weights: hex.EncodeToString(sum[:])}
		for _, r := range hist {
			run.Records = append(run.Records, fmt.Sprintf("round=%d selected=%v local=[%s] train_loss=%s test_acc=%s down=%d up=%d",
				r.Round, r.Selected, floatBits(r.LocalLosses...), floatBits(r.TrainLoss), floatBits(r.TestAccuracy),
				r.DownlinkBytes, r.UplinkBytes))
		}
		got = append(got, run)
	}
	dg := runDgramTraining(t, 42, 4, 0.9)
	run := roundGoldenRun{Name: "dgram-loss10"}
	for _, r := range dg.history {
		run.Records = append(run.Records, fmt.Sprintf("round=%d down_att=%d down_del=%d up_att=%d up_del=%d",
			r.Round, r.DownlinkAttemptBytes, r.DownlinkDeliveredBytes, r.UplinkAttemptBytes, r.UplinkDeliveredBytes))
	}
	got = append(got, run)

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(roundCoreGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(roundCoreGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []roundGoldenRun
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
