package flnet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// dial connects a fresh edge to the coordinator and performs the
// Join/Welcome handshake. The connection keeps its handshake deadline until
// Serve clears it.
func dial(cfg EdgeConfig) (*EdgeServer, error) {
	return dialAs(cfg, -1)
}

// encodeTrainReply encodes a reply into a fresh buffer.
func encodeTrainReply(rep TrainReply) ([]byte, error) {
	return appendTrainReply(nil, rep)
}

// decodeTrainReply decodes a reply into a fresh model.
func decodeTrainReply(payload []byte) (TrainReply, error) {
	var m ml.Model
	return decodeTrainReplyInto(payload, &m)
}

// fill sets every element of m to v.
func fill(m *mat.Dense, v float64) {
	for i := range m.RawData() {
		m.RawData()[i] = v
	}
}

// --- protocol unit tests -----------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgJoin, []byte{1, 2, 3}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != MsgJoin || len(payload) != 3 || payload[2] != 3 {
		t.Errorf("round trip lost data: %v %v", typ, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgShutdown, nil); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != MsgShutdown || len(payload) != 0 {
		t.Errorf("empty frame mangled: %v %v", typ, payload)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&buf); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized frame = %v, want ErrProtocol", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, byte(MsgJoin)}) // promises 10, delivers 1
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("truncated frame must error")
	}
}

func TestExpectFrameTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgJoin, []byte{0, 0, 0, 0}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if _, err := expectFrame(&buf, MsgWelcome); !errors.Is(err, ErrProtocol) {
		t.Errorf("type mismatch = %v, want ErrProtocol", err)
	}
}

func TestTrainRequestRoundTrip(t *testing.T) {
	m := ml.NewModel(3, 4, ml.Softmax)
	m.W.Set(1, 2, 7.5)
	req := TrainRequest{Round: 9, Epochs: 40, LearningRate: 0.01, Model: m}
	back, body, err := decodeTrainRequest(appendTrainRequest(nil, req))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Round != 9 || back.Epochs != 40 || back.LearningRate != 0.01 {
		t.Errorf("header lost: %+v", back)
	}
	var got ml.Model
	if err := got.UnmarshalBinaryReuse(body); err != nil {
		t.Fatalf("body: %v", err)
	}
	if got.ParamDistance(m) != 0 {
		t.Error("model lost in transit")
	}
}

func TestTrainReplyRoundTrip(t *testing.T) {
	m := ml.NewModel(2, 2, ml.Sigmoid)
	m.B[1] = -3
	rep := TrainReply{Round: 4, Loss: 0.125, Samples: 3000, Model: m}
	payload, err := encodeTrainReply(rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := decodeTrainReply(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Round != 4 || back.Loss != 0.125 || back.Samples != 3000 {
		t.Errorf("header lost: %+v", back)
	}
	if back.Model.ParamDistance(m) != 0 {
		t.Error("model lost in transit")
	}
}

func TestDecodeShortBodies(t *testing.T) {
	if _, _, err := decodeTrainRequest([]byte{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short request = %v, want ErrProtocol", err)
	}
	if _, err := decodeTrainReply([]byte{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short reply = %v, want ErrProtocol", err)
	}
	if _, err := decodeWelcome([]byte{1}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short welcome = %v, want ErrProtocol", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, m := range []MsgType{MsgJoin, MsgWelcome, MsgTrainRequest, MsgTrainReply, MsgShutdown} {
		if m.String() == "" {
			t.Errorf("MsgType %d has empty name", m)
		}
	}
	if MsgType(77).String() == "" {
		t.Error("unknown type must still print")
	}
}

// --- end-to-end tests ---------------------------------------------------------

// startCluster spins up a coordinator plus `servers` edge clients over
// loopback TCP and returns the coordinator and a wait function for the
// clients.
func startCluster(t *testing.T, servers, k, epochs int) (*Coordinator, func() []error) {
	t.Helper()
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: k,
			LocalEpochs:     epochs,
			LearningRate:    0.5,
			Decay:           0.99,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	errs := make([]error, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
			})
		}(i)
	}
	wait := func() []error {
		wg.Wait()
		return errs
	}
	t.Cleanup(coord.Shutdown)
	return coord, wait
}

func TestNetworkedTrainingEndToEnd(t *testing.T) {
	coord, wait := startCluster(t, 5, 3, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, 5); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	history, err := coord.Run(ctx, fl.MaxRounds(8))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(history) != 8 {
		t.Fatalf("got %d rounds, want 8", len(history))
	}
	first, last := history[0], history[7]
	if last.TrainLoss >= first.TrainLoss {
		t.Errorf("networked loss did not fall: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAccuracy < 0.5 {
		t.Errorf("networked accuracy = %v after 8 rounds", last.TestAccuracy)
	}
	for i, err := range wait() {
		if err != nil {
			t.Errorf("edge server %d exited with %v", i, err)
		}
	}
}

func TestNetworkedMatchesInProcess(t *testing.T) {
	// Same data, same seed, full participation (selection order irrelevant):
	// the networked run must match the in-process engine's aggregated model
	// trajectory.
	servers, k, epochs := 4, 4, 3
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

	// In-process reference.
	flCfg := fl.Config{
		ClientsPerRound: k,
		LocalEpochs:     epochs,
		LearningRate:    0.5,
		Decay:           0.99,
		Seed:            1,
	}
	engine, err := fl.NewEngine(flCfg, shards, fl.WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := engine.Run(fl.MaxRounds(4)); err != nil {
		t.Fatalf("engine Run: %v", err)
	}

	// Networked run.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: flCfg, Classes: train.Classes, Features: train.Dim(),
		RoundTimeout: 30 * time.Second, JoinTimeout: 10 * time.Second,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, servers); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	history, err := coord.Run(ctx, fl.MaxRounds(4))
	if err != nil {
		t.Fatalf("coordinator Run: %v", err)
	}
	wg.Wait()

	// Full participation with full-batch SGD is deterministic: the global
	// models after 4 rounds must match bit-for-bit up to aggregation order
	// (the coordinator may sum clients in a different order, so allow tiny
	// float reordering noise).
	dist := engine.Global().ParamDistance(coord.Global())
	if dist > 1e-9 {
		t.Errorf("networked and in-process models diverged by %v", dist)
	}
	netAcc := history[3].TestAccuracy
	engAcc := engine.History()[3].TestAccuracy
	if netAcc != engAcc {
		t.Errorf("accuracy mismatch: networked %v vs in-process %v", netAcc, engAcc)
	}
}

func TestCoordinatorRejectsBadConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	valid := func() CoordinatorConfig {
		return CoordinatorConfig{
			Classes: 2, Features: 2,
			FL: fl.Config{ClientsPerRound: 2, LocalEpochs: 1, LearningRate: 1},
		}
	}
	tests := []struct {
		name   string
		mutate func(*CoordinatorConfig)
	}{
		{"zero classes", func(c *CoordinatorConfig) { c.Classes = 0 }},
		{"K=0", func(c *CoordinatorConfig) { c.FL.ClientsPerRound = 0 }},
		{"E=0", func(c *CoordinatorConfig) { c.FL.LocalEpochs = 0 }},
		{"zero learning rate", func(c *CoordinatorConfig) { c.FL.LearningRate = 0 }},
		{"decay above one", func(c *CoordinatorConfig) { c.FL.Decay = 1.5 }},
		{"negative decay", func(c *CoordinatorConfig) { c.FL.Decay = -0.5 }},
		{"negative batch", func(c *CoordinatorConfig) { c.FL.BatchSize = -1 }},
		{"negative proximal mu", func(c *CoordinatorConfig) { c.FL.ProximalMu = -1 }},
		{"negative min replies", func(c *CoordinatorConfig) { c.MinReplies = -1 }},
		{"min replies above K", func(c *CoordinatorConfig) { c.MinReplies = 3 }},
		{"upload quant bits", func(c *CoordinatorConfig) { c.UploadQuantBits = 4 }},
		{"download quant bits", func(c *CoordinatorConfig) { c.DownloadQuantBits = 4 }},
	}
	if _, err := NewCoordinator(valid(), ln, nil); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid()
			tt.mutate(&cfg)
			if _, err := NewCoordinator(cfg, ln, nil); !errors.Is(err, ErrCoordinator) {
				t.Errorf("NewCoordinator = %v, want ErrCoordinator", err)
			}
		})
	}
}

func TestRoundWithoutEnoughClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL:      fl.Config{ClientsPerRound: 2, LocalEpochs: 1, LearningRate: 0.1},
		Classes: 2, Features: 2,
	}, ln, nil)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()
	if _, err := coord.Round(context.Background()); !errors.Is(err, ErrCoordinator) {
		t.Errorf("round with no clients = %v, want ErrCoordinator", err)
	}
}

func TestDialFailsFast(t *testing.T) {
	shard := &dataset.Dataset{}
	if _, err := dial(EdgeConfig{Addr: "127.0.0.1:1", Shard: shard}); !errors.Is(err, ErrEdge) {
		t.Errorf("empty shard = %v, want ErrEdge", err)
	}
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if _, err := dial(EdgeConfig{Addr: "127.0.0.1:1", Shard: d, DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Error("dialing a dead port must fail")
	}
}

func TestEdgeServeContextCancel(t *testing.T) {
	// An edge server blocked on reads must unblock when its context dies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Fake coordinator: accept, answer the handshake, then go silent.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := expectFrame(conn, MsgJoin); err != nil {
			return
		}
		if err := writeFrame(conn, MsgWelcome, encodeWelcome(0)); err != nil {
			return
		}
		// Hold the connection open silently.
		time.Sleep(5 * time.Second)
		conn.Close()
	}()

	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = RunEdgeServer(ctx, EdgeConfig{Addr: ln.Addr().String(), Shard: d})
	if err == nil {
		t.Fatal("cancelled serve must return an error")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("context cancellation did not unblock the read promptly")
	}
}

func TestWaitForClientsTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL:      fl.Config{ClientsPerRound: 1, LocalEpochs: 1, LearningRate: 0.1},
		Classes: 2, Features: 2,
		JoinTimeout: 200 * time.Millisecond,
	}, ln, nil)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()
	start := time.Now()
	if err := coord.WaitForClients(context.Background(), 3); err == nil {
		t.Error("waiting for clients that never come must fail")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("join timeout not honoured")
	}
}
