package flnet

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// --- v2 codec unit tests -----------------------------------------------------

func TestHandshakeCodecs(t *testing.T) {
	// Every handshake body is its uint32 fields plus the version byte.
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"join", encodeJoin(7), 5},
		{"welcome", encodeWelcome(3), 5},
		{"rejoin", encodeRejoin(4, 50), 9},
	} {
		if len(tc.body) != tc.want || tc.body[tc.want-1] != ProtoV2 {
			t.Errorf("%s body = %v, want %d bytes ending in v%d", tc.name, tc.body, tc.want, ProtoV2)
		}
	}
	samples, err := decodeJoin(encodeJoin(7))
	if err != nil || samples != 7 {
		t.Errorf("join round trip = (%d, %v)", samples, err)
	}
	id, err := decodeWelcome(encodeWelcome(3))
	if err != nil || id != 3 {
		t.Errorf("welcome round trip = (%d, %v)", id, err)
	}
	rid, samples, err := decodeRejoin(encodeRejoin(4, 50))
	if err != nil || rid != 4 || samples != 50 {
		t.Errorf("rejoin round trip = (%d, %d, %v)", rid, samples, err)
	}
}

func TestHandshakeDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"join-empty", func() error { _, err := decodeJoin(nil); return err }()},
		{"join-3-bytes", func() error { _, err := decodeJoin([]byte{1, 2, 3}); return err }()},
		{"join-6-bytes", func() error { _, err := decodeJoin([]byte{1, 2, 3, 4, 5, 6}); return err }()},
		// Only the exact ProtoV2 body is a handshake: the retired
		// version-less bodies and every other version byte are rejected.
		{"join-4-bytes", func() error { _, err := decodeJoin([]byte{1, 0, 0, 0}); return err }()},
		{"join-versioned-v0", func() error { _, err := decodeJoin([]byte{1, 0, 0, 0, 0}); return err }()},
		{"join-versioned-v1", func() error { _, err := decodeJoin([]byte{1, 0, 0, 0, 1}); return err }()},
		{"join-versioned-v3", func() error { _, err := decodeJoin([]byte{1, 0, 0, 0, 3}); return err }()},
		{"welcome-4-bytes", func() error { _, err := decodeWelcome([]byte{1, 0, 0, 0}); return err }()},
		{"welcome-versioned-v1", func() error { _, err := decodeWelcome([]byte{1, 0, 0, 0, 1}); return err }()},
		{"welcome-versioned-v3", func() error { _, err := decodeWelcome([]byte{1, 0, 0, 0, 3}); return err }()},
		{"welcome-short", func() error { _, err := decodeWelcome([]byte{1}); return err }()},
		{"rejoin-short", func() error { _, _, err := decodeRejoin([]byte{1, 2}); return err }()},
		{"rejoin-8-bytes", func() error {
			_, _, err := decodeRejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0})
			return err
		}()},
		{"rejoin-versioned-v0", func() error {
			_, _, err := decodeRejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0})
			return err
		}()},
		{"rejoin-versioned-v1", func() error {
			_, _, err := decodeRejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1})
			return err
		}()},
		{"rejoin-versioned-v3", func() error {
			_, _, err := decodeRejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 3})
			return err
		}()},
		{"rejoin-10-bytes", func() error {
			_, _, err := decodeRejoin(make([]byte, 10))
			return err
		}()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, tc.err)
		}
	}
}

func TestTrainRequestV2RoundTrip(t *testing.T) {
	m := ml.NewModel(3, 4, ml.Softmax)
	m.W.Set(1, 2, -2.5)
	m.B[0] = 0.75

	// Full-model request.
	full := TrainRequest{Round: 6, Epochs: 3, LearningRate: 0.25, ReplyBits: ml.Quant8, Model: m}
	buf := appendTrainRequest(nil, full)
	back, body, err := decodeTrainRequest(buf)
	if err != nil {
		t.Fatalf("decode full v2: %v", err)
	}
	if back.Round != 6 || back.Epochs != 3 || back.LearningRate != 0.25 ||
		back.ReplyBits != ml.Quant8 || back.DownBits != 0 || back.BaseRound != 6 {
		t.Errorf("full v2 header lost: %+v", back)
	}
	var got ml.Model
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatalf("body: %v", err)
	}
	if got.ParamDistance(m) != 0 {
		t.Error("full v2 model lost in transit")
	}

	// Residual request against an earlier base round.
	res := TrainRequest{Round: 6, Epochs: 3, LearningRate: 0.25, DownBits: ml.Quant8, BaseRound: 5}
	buf2 := appendTrainRequestHeader(nil, res)
	buf2, err = ml.AppendQuantized(buf2, m, ml.Quant8)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	back2, body2, err := decodeTrainRequest(buf2)
	if err != nil {
		t.Fatalf("decode residual v2: %v", err)
	}
	if back2.DownBits != ml.Quant8 || back2.BaseRound != 5 {
		t.Errorf("residual header lost: %+v", back2)
	}
	var resid ml.Model
	if err := resid.DequantizeInto(body2); err != nil {
		t.Fatalf("residual body: %v", err)
	}
	bound := ml.MaxQuantError(m, ml.Quant8) * 1.01
	if d := resid.ParamDistance(m); d > bound*float64(m.ParamCount()) {
		t.Errorf("residual reconstruction distance %v too large", d)
	}
}

// TestDecodeTrainRequestV2Errors is the malformed-frame table: every corrupt
// header shape a peer could send must produce a deterministic ErrProtocol.
func TestDecodeTrainRequestV2Errors(t *testing.T) {
	m := ml.NewModel(2, 2, ml.Softmax)
	good := appendTrainRequest(nil, TrainRequest{Round: 3, Epochs: 1, LearningRate: 0.1, Model: m})

	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated-header", good[:trainReqHeaderLen-1]},
		{"header-only-no-body", good[:trainReqHeaderLen]},
		{"bad-reply-bits", corrupt(func(b []byte) []byte { b[16] = 12; return b })},
		{"bad-down-bits", corrupt(func(b []byte) []byte { b[20] = 7; return b })},
		{"reserved-nonzero", corrupt(func(b []byte) []byte { b[21] = 1; return b })},
		// Full-model requests must self-describe: BaseRound == Round.
		{"full-base-mismatch", corrupt(func(b []byte) []byte { b[22] = 99; return b })},
		// Residual from the future: BaseRound > Round.
		{"residual-future-base", corrupt(func(b []byte) []byte {
			b[20] = byte(ml.Quant8)
			b[22] = 9 // round is 3
			return b
		})},
	}
	for _, tc := range cases {
		_, _, err := decodeTrainRequest(tc.payload)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, err)
		}
	}

	// A truncated residual body passes the header but must fail the model
	// decode on the edge (DequantizeInto), not panic.
	res := appendTrainRequestHeader(nil, TrainRequest{Round: 3, BaseRound: 2, DownBits: ml.Quant8, Epochs: 1, LearningRate: 0.1})
	full, err := ml.AppendQuantized(res, m, ml.Quant8)
	if err != nil {
		t.Fatal(err)
	}
	truncated := full[:len(full)-3]
	if _, body, err := decodeTrainRequest(truncated); err == nil {
		var scratch ml.Model
		if err := scratch.DequantizeInto(body); err == nil {
			t.Error("truncated residual body must fail to decode")
		}
	}
}

// TestEdgeRejectsProtocolMismatches drives the edge-side handshake guard: a
// coordinator whose Welcome is not exactly the ProtoV2 body — the retired
// version-less 4-byte body, or any other version byte — fails the dial with
// ErrProtocol.
func TestEdgeRejectsProtocolMismatches(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for _, tc := range []struct {
		name    string
		welcome []byte
	}{
		{"4-byte", []byte{0, 0, 0, 0}},
		{"v1", []byte{0, 0, 0, 0, 1}},
		{"v3", []byte{0, 0, 0, 0, 3}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := expectFrame(conn, MsgJoin); err != nil {
				return
			}
			_ = writeFrame(conn, MsgWelcome, tc.welcome)
		}()
		_, err = Dial(EdgeConfig{Addr: ln.Addr().String(), Shard: d, DialTimeout: 2 * time.Second})
		ln.Close()
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s welcome = %v, want ErrProtocol", tc.name, err)
		}
	}
}

// TestCoordinatorRejectsBareJoin sends the retired version-less 4-byte Join
// to a live coordinator: it must get no roster slot and no Welcome.
func TestCoordinatorRejectsBareJoin(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}
	conn, err := net.DialTimeout("tcp", coord.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, MsgJoin, []byte{10, 0, 0, 0}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The coordinator closes the connection without answering.
	if typ, _, err := readFrame(conn); err == nil {
		t.Errorf("bare join answered with a %v frame", typ)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("bare join left open instead of closed")
	}
	if n := coord.Connected(); n != 0 {
		t.Errorf("Connected() = %d after a bare join, want 0", n)
	}
	// The same coordinator still admits a ProtoV2 join.
	good := rawJoin(t, coord.Addr().String())
	defer good.Close()
	if err := coord.AwaitRoster(ctx, 1, 5*time.Second); err != nil {
		t.Fatalf("ProtoV2 join after a bare one: %v", err)
	}
}

// --- allocation pins ---------------------------------------------------------

// TestWriteFrameAllocationFree pins the pooled frame path: steady-state
// writeFrame (header + payload coalesced in a pooled buffer) and
// readFrameInto with warm scratch must not touch the heap.
func TestWriteFrameAllocationFree(t *testing.T) {
	payload := make([]byte, 8192)
	// Warm the pool so the measured runs reuse a buffer.
	if err := writeFrame(io.Discard, MsgTrainRequest, payload); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := writeFrame(io.Discard, MsgTrainRequest, payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.1 {
		t.Errorf("writeFrame allocates %.1f objects per frame, want 0", avg)
	}

	var wire bytes.Buffer
	if err := writeFrame(&wire, MsgTrainRequest, payload); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), wire.Bytes()...)
	scratch := make([]byte, 0, len(frame))
	r := bytes.NewReader(frame)
	if avg := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if _, _, err := readFrameInto(r, &scratch); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.1 {
		t.Errorf("readFrameInto allocates %.1f objects per frame, want 0", avg)
	}
}

// --- bit-identity and residual downlink --------------------------------------

// residualCluster spins up a coordinator with the given downlink and uplink
// codecs plus `servers` edges, runs `rounds` rounds, and returns the coordinator (still
// up; t.Cleanup shuts it down) and history.
func residualCluster(t *testing.T, servers int, downBits, upBits ml.QuantBits, rounds int, stop fl.StopCondition) (*Coordinator, []fl.RoundRecord) {
	t.Helper()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 400
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: servers, LocalEpochs: 3, LearningRate: 0.5, Decay: 0.99, Seed: 1,
		},
		Classes:           train.Classes,
		Features:          train.Dim(),
		RoundTimeout:      30 * time.Second,
		JoinTimeout:       10 * time.Second,
		DownloadQuantBits: downBits,
		UploadQuantBits:   upBits,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Shutdown)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Join strictly in shard order so slot ids — and with them selection and
	// aggregation-sum order — are identical across clusters. Bit-identity
	// comparisons between two independently started fleets need this; a
	// racing join would only reorder floating-point sums.
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			})
		}(i)
		if err := coord.AwaitRoster(ctx, i+1, 30*time.Second); err != nil {
			t.Fatalf("edge %d join: %v", i, err)
		}
	}
	if err := coord.WaitForClients(ctx, servers); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	if stop == nil {
		stop = fl.MaxRounds(rounds)
	}
	history, err := coord.Run(ctx, stop)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wg.Wait()
	return coord, history
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// losslessGoldenPath holds the lossless downlink's per-round TrainLoss and
// TestAccuracy bits plus final global weights at fleet sizes {1, 2, 4, 8},
// captured when a second (retired) wire format still proved the same bits.
const losslessGoldenPath = "testdata/lossless_v2_golden.json"

type losslessGoldenRound struct {
	Round            int     `json:"round"`
	TrainLoss        float64 `json:"train_loss"`
	TrainLossBits    string  `json:"train_loss_bits"`
	TestAccuracy     float64 `json:"test_accuracy"`
	TestAccuracyBits string  `json:"test_accuracy_bits"`
}

type losslessGoldenRun struct {
	Servers int                   `json:"servers"`
	Rounds  []losslessGoldenRound `json:"rounds"`
	// Global is the final global model's ml serialization, hex-encoded.
	Global string `json:"global_efm_hex"`
}

// TestLosslessV2MatchesGolden pins the lossless downlink bit for bit: a
// full-precision run trains the exact per-round losses, accuracies and final
// weights recorded in losslessGoldenPath, at every fleet size. Regenerate
// (only for an intended numeric change) with -update.
func TestLosslessV2MatchesGolden(t *testing.T) {
	var got []losslessGoldenRun
	for _, servers := range []int{1, 2, 4, 8} {
		coord, hist := residualCluster(t, servers, 0, 0, 3, nil)
		run := losslessGoldenRun{Servers: servers, Global: hex.EncodeToString(coord.Global().AppendBinary(nil))}
		for _, r := range hist {
			run.Rounds = append(run.Rounds, losslessGoldenRound{
				Round:            r.Round,
				TrainLoss:        r.TrainLoss,
				TrainLossBits:    fmt.Sprintf("%016x", math.Float64bits(r.TrainLoss)),
				TestAccuracy:     r.TestAccuracy,
				TestAccuracyBits: fmt.Sprintf("%016x", math.Float64bits(r.TestAccuracy)),
			})
		}
		got = append(got, run)
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(losslessGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(losslessGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []losslessGoldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fleet sizes, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Servers != w.Servers || len(g.Rounds) != len(w.Rounds) {
			t.Errorf("run %d: servers=%d with %d rounds, golden servers=%d with %d rounds",
				i, g.Servers, len(g.Rounds), w.Servers, len(w.Rounds))
			continue
		}
		for r := range w.Rounds {
			if g.Rounds[r] != w.Rounds[r] {
				t.Errorf("servers=%d round %d: got %+v, golden %+v", w.Servers, r, g.Rounds[r], w.Rounds[r])
			}
		}
		if g.Global != w.Global {
			t.Errorf("servers=%d: final global weights differ from the golden", w.Servers)
		}
	}
}

// TestResidualDownlinkShrinksBytesAndConverges is the headline acceptance
// test: an 8-bit residual downlink cuts warm-round downlink bytes at least
// 4x against the lossless run, while still training to 0.9 test accuracy.
func TestResidualDownlinkShrinksBytesAndConverges(t *testing.T) {
	const servers = 4
	stop := func(h []fl.RoundRecord) bool {
		return fl.TargetAccuracy(0.9)(h) || fl.MaxRounds(60)(h)
	}
	_, full := residualCluster(t, servers, 0, 0, 0, stop)
	_, quant := residualCluster(t, servers, ml.Quant8, 0, 0, stop)

	if acc := quant[len(quant)-1].TestAccuracy; acc < 0.9 {
		t.Errorf("quantized downlink final accuracy = %v, want >= 0.9 within %d rounds", acc, len(quant))
	}
	if len(full) < 2 || len(quant) < 2 {
		t.Fatalf("need at least 2 rounds, got full=%d quant=%d", len(full), len(quant))
	}
	// Round 0 is always a full broadcast (no base yet); warm rounds carry
	// residuals. Compare per-round downlink volume from round 1 on.
	fullPerRound := full[1].DownlinkBytes
	quantPerRound := quant[1].DownlinkBytes
	if quantPerRound*4 > fullPerRound {
		t.Errorf("warm-round downlink %dB (quantized) vs %dB (full) — want >= 4x reduction",
			quantPerRound, fullPerRound)
	}
	// Round 0 must match: both runs broadcast the full model.
	if quant[0].DownlinkBytes != full[0].DownlinkBytes {
		t.Errorf("cold-round downlink differs: %dB vs %dB", quant[0].DownlinkBytes, full[0].DownlinkBytes)
	}
}

// TestResidualSurvivesRejoin forces a mid-run reconnect under a quantized
// downlink: the rejoined connection must fall back to a full broadcast (its
// residual base is gone) and training must continue unperturbed.
func TestResidualSurvivesRejoin(t *testing.T) {
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 300
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: 2, LocalEpochs: 2, LearningRate: 0.3, Decay: 0.99, Seed: 1,
		},
		Classes:           train.Classes,
		Features:          train.Dim(),
		RoundTimeout:      30 * time.Second,
		JoinTimeout:       10 * time.Second,
		RejoinGrace:       10 * time.Second,
		DownloadQuantBits: ml.Quant8,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()

	edgeCtx, stopEdges := context.WithCancel(context.Background())
	defer stopEdges()
	runEdge := func(i int) {
		_ = RunEdgeServer(edgeCtx, EdgeConfig{
			Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Multiplier: 2},
		})
	}
	go runEdge(0)
	go runEdge(1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, 2); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	// Two rounds to establish residual state on both clients.
	for i := 0; i < 2; i++ {
		if _, err := coord.Round(ctx); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	// Kill client 0's connection between rounds; its retry loop rejoins.
	coord.mu.Lock()
	conn0 := coord.clients[0].conn
	coord.mu.Unlock()
	conn0.Close()
	if err := coord.AwaitRoster(ctx, 2, 10*time.Second); err != nil {
		t.Fatalf("AwaitRoster after kill: %v", err)
	}
	// The next rounds must succeed: round 3 re-sends the full model to the
	// rejoined client, later rounds go back to residuals.
	var recs []fl.RoundRecord
	for i := 0; i < 3; i++ {
		rec, err := coord.Round(ctx)
		if err != nil {
			t.Fatalf("post-rejoin round %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	// Final round should be back on residuals for both clients: strictly
	// fewer downlink bytes than the post-rejoin round that carried one full
	// model.
	if recs[2].DownlinkBytes >= recs[0].DownlinkBytes {
		t.Errorf("residuals did not resume after rejoin: %dB then %dB",
			recs[0].DownlinkBytes, recs[2].DownlinkBytes)
	}
}
