package flnet

import (
	"bytes"
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/iot"
)

// dgramRun is one training run over the datagram transport: the committed
// round history, the per-round byte-exact global model snapshots, and the
// aggregated edge-side uplink meter.
type dgramRun struct {
	history []fl.RoundRecord
	weights [][]byte
	meter   *fldgram.Meter
}

// runDgramTraining trains a 5-edge cluster (K=3) to `rounds` committed
// rounds over fldgram on a loopback UDP socket, with every data packet
// subject to the seeded per-attempt delivery probability successProb on both
// directions. successProb=1 disables injection (the transport still runs the
// full ARQ path). The small MTU forces multi-fragment frames so the
// geometric retransmission process gets a statistically meaningful number of
// draws per round.
func runDgramTraining(t *testing.T, seed uint64, rounds int, successProb float64) dgramRun {
	t.Helper()
	const servers, k = 5, 3
	const mtu = 256

	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 500
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}

	ln, err := fldgram.Listen("127.0.0.1:0", fldgram.Config{
		MTU:         mtu,
		Seed:        seed,
		SuccessProb: successProb,
	})
	if err != nil {
		t.Fatalf("fldgram.Listen: %v", err)
	}
	ccfg := CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: k,
			LocalEpochs:     5,
			LearningRate:    0.5,
			Decay:           0.99,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
		MinReplies:   2,
		RejoinGrace:  5 * time.Second,
	}
	coord, err := NewCoordinator(ccfg, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}

	meter := &fldgram.Meter{}
	errs := make([]error, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		dial, err := fldgram.Dialer(fldgram.Config{
			MTU:         mtu,
			Seed:        seed + uint64(i)*1000003 + 1,
			SuccessProb: successProb,
			Meter:       meter,
		})
		if err != nil {
			t.Fatalf("fldgram.Dialer: %v", err)
		}
		wg.Add(1)
		go func(i int, dial func(string, time.Duration) (net.Conn, error)) {
			defer wg.Done()
			errs[i] = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
				Retry: chaosRetry(),
				Dial:  dial,
			})
		}(i, dial)
		if err := coord.AwaitRoster(ctx, i+1, 10*time.Second); err != nil {
			t.Fatalf("edge %d never registered: %v", i, err)
		}
	}

	var weights [][]byte
	for len(coord.History()) < rounds {
		if _, err := coord.Round(ctx); err != nil {
			t.Fatalf("round failed over dgram transport: %v", err)
		}
		weights = append(weights, coord.Global().AppendBinary(nil))
	}
	coord.Shutdown()
	wg.Wait()
	for i, err := range errs {
		if !edgeExitOK(err) {
			t.Errorf("edge %d exited with %v", i, err)
		}
	}
	return dgramRun{history: coord.History(), weights: weights, meter: meter}
}

// TestDgramTrainingMatchesStream is the transport-equivalence check: with
// ≥10% of data packets dropped by the seeded injector, the ARQ must repair
// every loss so the committed round history is identical — record for record
// — to the one a lossless TCP cluster produces from the same seeds. The
// transport may cost retransmissions; it may not change what the federation
// learns.
func TestDgramTrainingMatchesStream(t *testing.T) {
	const rounds = 8
	dgram := runDgramTraining(t, 77, rounds, 0.9)
	stream, _ := runChaosTraining(t, 77, rounds, 0, nil) // DropMeanBytes=0: plain TCP
	assertIdenticalHistories(t, dgram.history, stream)

	last := dgram.history[len(dgram.history)-1]
	if last.TestAccuracy < 0.5 {
		t.Errorf("accuracy over lossy dgram = %v, want >= 0.5", last.TestAccuracy)
	}
	var attempt, delivered int64
	for _, rec := range dgram.history {
		attempt += rec.DownlinkAttemptBytes + rec.UplinkAttemptBytes
		delivered += rec.DownlinkDeliveredBytes + rec.UplinkDeliveredBytes
	}
	if delivered == 0 {
		t.Fatal("round records carry no dgram byte counters")
	}
	if attempt <= delivered {
		t.Errorf("attempted %d <= delivered %d bytes: 10%% loss not exercised", attempt, delivered)
	}
}

// TestDgramSameSeedHistoriesIdentical: determinism contract over a real UDP
// socket at 10% injected loss — same seeds must reproduce bit-identical
// per-round global weights (byte-exact serializations), identical round
// records, and identical attempted/delivered byte counters.
func TestDgramSameSeedHistoriesIdentical(t *testing.T) {
	const rounds = 6
	a := runDgramTraining(t, 42, rounds, 0.9)
	b := runDgramTraining(t, 42, rounds, 0.9)
	assertIdenticalHistories(t, a.history, b.history)
	if len(a.weights) != len(b.weights) {
		t.Fatalf("weight history lengths differ: %d vs %d", len(a.weights), len(b.weights))
	}
	for i := range a.weights {
		if !bytes.Equal(a.weights[i], b.weights[i]) {
			t.Errorf("round %d: global weights differ between same-seed runs", i+1)
		}
	}
	for i := range a.history {
		ra, rb := a.history[i], b.history[i]
		if ra.DownlinkAttemptBytes != rb.DownlinkAttemptBytes ||
			ra.DownlinkDeliveredBytes != rb.DownlinkDeliveredBytes ||
			ra.UplinkAttemptBytes != rb.UplinkAttemptBytes ||
			ra.UplinkDeliveredBytes != rb.UplinkDeliveredBytes {
			t.Errorf("round %d: dgram byte counters differ: %+v vs %+v", i+1, ra, rb)
		}
	}
}

// TestDgramMeasuredEnergyMatchesAnalyticRho closes the Eq. 4 loop on
// measured bytes: over ≥20 rounds at per-attempt success probability p, the
// measured expected energy per delivered byte — ρ·(attempted/delivered),
// with both sides counted at wire size by the transport — must match the
// paper's analytic ρ/p within 5%. The injector is seeded, so the measured
// ratio is a deterministic draw from the geometric attempt process; the
// tolerance covers its finite-sample deviation from the mean.
func TestDgramMeasuredEnergyMatchesAnalyticRho(t *testing.T) {
	const rounds = 20
	const p = 0.9
	run := runDgramTraining(t, 7, rounds, p)

	var attempt, delivered int64
	for _, rec := range run.history {
		attempt += rec.DownlinkAttemptBytes + rec.UplinkAttemptBytes
		delivered += rec.DownlinkDeliveredBytes + rec.UplinkDeliveredBytes
	}
	if delivered == 0 {
		t.Fatal("no delivered bytes recorded")
	}
	rho := iot.NBIoTJoulesPerByte
	measured := rho * float64(attempt) / float64(delivered)
	analytic := rho / p
	rel := math.Abs(measured-analytic) / analytic
	t.Logf("coordinator ledger: %d attempted / %d delivered bytes; energy per delivered byte measured %.6g J vs analytic ρ/p %.6g J (%.2f%% off)",
		attempt, delivered, measured, analytic, 100*rel)
	if rel > 0.05 {
		t.Errorf("measured energy per delivered byte %.6g J vs analytic %.6g J: off by %.2f%%, want <= 5%%",
			measured, analytic, 100*rel)
	}

	// The edge-side Meter must tell the same story from the other end of the
	// link: it aggregates every dialer conn's uplink attempts.
	attempts, attemptBytes, deliv, delivBytes := run.meter.Totals()
	if deliv == 0 || attemptBytes <= delivBytes {
		t.Fatalf("edge meter %d/%d attempts, %d/%d bytes: loss not visible", attempts, deliv, attemptBytes, delivBytes)
	}
	meterMeasured := rho * float64(attemptBytes) / float64(delivBytes)
	if rel := math.Abs(meterMeasured-analytic) / analytic; rel > 0.05 {
		t.Errorf("edge meter energy per delivered byte %.6g J vs analytic %.6g J: off by %.2f%%",
			meterMeasured, analytic, 100*rel)
	}
}
