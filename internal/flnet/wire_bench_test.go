package flnet

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// BenchmarkRoundWire measures one full networked FedAvg round over loopback
// TCP with the paper's K=10 fan-out: request encode + K conn writes, K local
// trainings, K reply reads + decodes, aggregation, evaluation. One local
// epoch over tiny shards keeps SGD cheap so the wire path (frame buffers,
// model encode/decode, syscalls) dominates — this is the benchmark the
// pooled zero-copy protocol is pinned by (allocs/op and B/op in
// BENCH_<date>.json behind the benchfmt gate).
func BenchmarkRoundWire(b *testing.B) {
	const servers, k = 10, 10
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 200
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		b.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		b.Fatalf("Partition: %v", err)
	}
	coord, cleanup := benchCluster(b, shards, test, CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: k,
			LocalEpochs:     1,
			LearningRate:    0.5,
			Decay:           0.99,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
	})
	defer cleanup()

	ctx := context.Background()
	// Warm round: edge-side training state, coordinator scratch, and the
	// frame pools all reach steady state before the timer starts.
	if _, err := coord.Round(ctx); err != nil {
		b.Fatalf("warm round: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Round(ctx); err != nil {
			b.Fatalf("round %d: %v", i, err)
		}
	}
}

// benchCluster starts a coordinator plus one edge server per shard over
// loopback TCP, waits for full registration, and returns a cleanup that
// shuts the fleet down.
func benchCluster(b *testing.B, shards []*dataset.Dataset, test *dataset.Dataset, cfg CoordinatorConfig) (*Coordinator, func()) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(cfg, ln, test)
	if err != nil {
		b.Fatalf("NewCoordinator: %v", err)
	}
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, len(shards)); err != nil {
		b.Fatalf("WaitForClients: %v", err)
	}
	return coord, func() {
		coord.Shutdown()
		wg.Wait()
	}
}

// BenchmarkEncodeTrainRequest isolates the downlink encode: one request
// frame carrying the full 10×64 global model — the per-round, per-client
// payload the residual path shrinks.
func BenchmarkEncodeTrainRequest(b *testing.B) {
	m := ml.NewModel(10, 64, ml.Softmax)
	fill(m.W, 0.25)
	req := TrainRequest{Round: 3, Epochs: 5, LearningRate: 0.1, Model: m}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := appendTrainRequest(make([]byte, 0, trainReqHeaderLen+m.EncodedSize()), req)
		if len(payload) == 0 {
			b.Fatal("empty payload")
		}
	}
}

// BenchmarkEncodeResidual is the coordinator-side residual downlink build:
// subtract the client's last reconstruction from the snapshot, quantize the
// residual into a pooled frame, dequantize it back for error feedback, and
// stage the client's next state — everything buildResidualFrame does per
// selected client per round, against the full-model encode above.
func BenchmarkEncodeResidual(b *testing.B) {
	snap := ml.NewModel(10, 64, ml.Softmax)
	fill(snap.W, 0.25)
	last := snap.Clone()
	fill(last.W, 0.249) // small drift, as between consecutive rounds
	c := &Coordinator{cfg: CoordinatorConfig{Classes: 10, Features: 64}}
	cl := &clientConn{lastSent: last}
	req := TrainRequest{Round: 3, Epochs: 5, LearningRate: 0.1, Model: snap}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp, frame, err := c.buildResidualFrame(cl, req, ml.Quant8)
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
		freeFrame(bp)
	}
}
