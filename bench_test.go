// Benchmarks reproducing every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index), the design-choice ablations
// called out in DESIGN.md §5, and microbenchmarks of the hot substrates.
//
// The per-figure benchmarks wrap the same harnesses cmd/experiments runs;
// one benchmark "op" regenerates the whole table/figure at quick scale and
// reports the headline quantity via b.ReportMetric, so `go test -bench=.`
// both exercises and documents the reproduction.
package eefei

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/core"
	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/experiments"
	"eefei/internal/faultnet"
	"eefei/internal/fl"
	"eefei/internal/flnet"
	"eefei/internal/mat"
	"eefei/internal/ml"
	"eefei/internal/optim"
)

// benchSetup lazily builds the shared quick-scale experiment substrate.
var (
	benchSetupOnce sync.Once
	benchSetupVal  *experiments.Setup
	benchSetupErr  error
)

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchSetupOnce.Do(func() {
		benchSetupVal, benchSetupErr = experiments.NewSetup(experiments.Quick)
	})
	if benchSetupErr != nil {
		b.Fatalf("setup: %v", benchSetupErr)
	}
	return benchSetupVal
}

// --- one benchmark per table / figure ----------------------------------------

func BenchmarkTable1StepDuration(b *testing.B) {
	var lastC0 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(uint64(i + 1))
		if err != nil {
			b.Fatalf("Table1: %v", err)
		}
		lastC0 = res.SimC0
	}
	b.ReportMetric(lastC0*1e5, "c0e5(paper=7.79)")
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if err := experiments.RenderTable2(io.Discard, rows); err != nil {
			b.Fatalf("RenderTable2: %v", err)
		}
	}
}

func BenchmarkFigure3PowerTrace(b *testing.B) {
	setup := benchSetup(b)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(setup, uint64(i+1))
		if err != nil {
			b.Fatalf("Figure3: %v", err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds(paper=2)")
}

func BenchmarkFigure4FixedE(b *testing.B) {
	setup := benchSetup(b)
	var tAtTarget int
	for i := 0; i < b.N; i++ {
		// Reduced sweep: the two extreme K values at the pinned E=40.
		res, err := experiments.Figure5(setup, experiments.SweepConfig{
			Ks: []int{1, 20}, PinnedE: 40,
		})
		if err != nil {
			b.Fatalf("K sweep: %v", err)
		}
		tAtTarget = res.Points[len(res.Points)-1].EmpiricalRounds
	}
	b.ReportMetric(float64(tAtTarget), "T@K=20")
}

func BenchmarkFigure4FixedK(b *testing.B) {
	setup := benchSetup(b)
	var uShape float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(setup, experiments.SweepConfig{
			Es: []int{1, 20, 100}, PinnedK: 10,
		})
		if err != nil {
			b.Fatalf("E sweep: %v", err)
		}
		// E·T at the middle point relative to the ends characterizes the
		// Fig.-4d U-shape (paper: 5600 / 3600 / 6000).
		mid := res.Points[1]
		uShape = float64(mid.Param * mid.EmpiricalRounds)
	}
	b.ReportMetric(uShape, "E·T@E=20")
}

func BenchmarkFigure5EnergyVsK(b *testing.B) {
	setup := benchSetup(b)
	var kStar int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(setup, experiments.SweepConfig{
			Ks: []int{1, 2, 5, 10, 20},
		})
		if err != nil {
			b.Fatalf("Figure5: %v", err)
		}
		kStar = res.KStarTheory
	}
	b.ReportMetric(float64(kStar), "K*(paper=1)")
}

func BenchmarkFigure6EnergyVsE(b *testing.B) {
	setup := benchSetup(b)
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(setup, experiments.SweepConfig{})
		if err != nil {
			b.Fatalf("Figure6: %v", err)
		}
		savings = res.MeasuredSavings
	}
	b.ReportMetric(100*savings, "%savings(paper=49.8@paper-scale)")
}

// --- design-choice ablations (DESIGN.md §5) -----------------------------------

// BenchmarkAblationACSClosedForm times Algorithm 1 with the closed-form
// partial minimizers of Eqs. (15)/(17).
func BenchmarkAblationACSClosedForm(b *testing.B) {
	p := core.DefaultProblem()
	cfg := core.DefaultPlannerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(p, cfg); err != nil {
			b.Fatalf("Solve: %v", err)
		}
	}
}

// BenchmarkAblationACSNumeric replaces the closed forms with golden-section
// searches: same answer, measurably slower — the value of Eqs. (15)/(17).
func BenchmarkAblationACSNumeric(b *testing.B) {
	p := core.DefaultProblem()
	cfg := core.DefaultPlannerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveNumeric(p, cfg); err != nil {
			b.Fatalf("SolveNumeric: %v", err)
		}
	}
}

// BenchmarkAblationGridSearch is the brute-force integer baseline ACS is
// compared against.
func BenchmarkAblationGridSearch(b *testing.B) {
	p := core.DefaultProblem()
	eMax := int(p.EMax(1)) + 1
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveGrid(p, eMax); err != nil {
			b.Fatalf("SolveGrid: %v", err)
		}
	}
}

// BenchmarkAblationActivation compares the paper's Table-II sigmoid head
// against the softmax head on one federated round.
func BenchmarkAblationActivation(b *testing.B) {
	setup := benchSetup(b)
	for _, act := range []ml.Activation{ml.Softmax, ml.Sigmoid} {
		b.Run(act.String(), func(b *testing.B) {
			cfg := fl.Config{
				ClientsPerRound: 5, LocalEpochs: 5, LearningRate: 0.1,
				Activation: act, Seed: 1,
			}
			for i := 0; i < b.N; i++ {
				engine, err := fl.NewEngine(cfg, setup.Shards)
				if err != nil {
					b.Fatalf("NewEngine: %v", err)
				}
				if _, err := engine.Round(); err != nil {
					b.Fatalf("Round: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationEmpiricalT compares the bound's T* with an actual
// trained-to-target round count at the planner's optimum.
func BenchmarkAblationEmpiricalT(b *testing.B) {
	setup := benchSetup(b)
	var tEmp int
	for i := 0; i < b.N; i++ {
		res, err := setup.RunTraining(1, 20, uint64(i+1))
		if err != nil {
			b.Fatalf("RunTraining: %v", err)
		}
		tEmp = experiments.RoundsToAccuracy(res.History, setup.AccuracyTarget)
	}
	b.ReportMetric(float64(tEmp), "T_emp(K=1,E=20)")
}

// --- substrate microbenchmarks -------------------------------------------------

func BenchmarkMatDot784(b *testing.B) {
	rng := mat.NewRNG(1)
	x := make([]float64, 784)
	y := make([]float64, 784)
	for i := range x {
		x[i], y[i] = rng.Norm(), rng.Norm()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mat.Dot(x, y)
	}
	_ = sink
}

func BenchmarkMatMul64(b *testing.B) {
	rng := mat.NewRNG(2)
	a := mat.NewDense(64, 64)
	c := mat.NewDense(64, 64)
	dst := mat.NewDense(64, 64)
	for i := range a.RawData() {
		a.RawData()[i], c.RawData()[i] = rng.Norm(), rng.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mat.Mul(dst, a, c); err != nil {
			b.Fatalf("Mul: %v", err)
		}
	}
}

func BenchmarkSGDEpochFullBatch(b *testing.B) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 1000
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		b.Fatalf("Synthesize: %v", err)
	}
	model := ml.NewModel(d.Classes, d.Dim(), ml.Softmax)
	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: 0.1})
	if err != nil {
		b.Fatalf("NewSGD: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sgd.Epoch(model, d); err != nil {
			b.Fatalf("Epoch: %v", err)
		}
	}
}

// BenchmarkModelSerialize is the wire codec round trip: AppendBinary into a
// reused buffer, then UnmarshalBinaryReuse into a reused model.
func BenchmarkModelSerialize(b *testing.B) {
	m := ml.NewModel(10, 784, ml.Softmax)
	buf := make([]byte, 0, m.EncodedSize())
	var back ml.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendBinary(buf[:0])
		if err := back.UnmarshalBinaryReuse(buf); err != nil {
			b.Fatalf("UnmarshalBinaryReuse: %v", err)
		}
	}
}

func BenchmarkTraceRecordAndIntegrate(b *testing.B) {
	pm := energy.DefaultPiPowerModel()
	tm := energy.DefaultPiTimeModel()
	meter, err := energy.NewMeter(pm, 1000, 1)
	if err != nil {
		b.Fatalf("NewMeter: %v", err)
	}
	sched := energy.RoundSchedule(tm, 40, 2000, 2)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		trace, err := meter.Record(sched)
		if err != nil {
			b.Fatalf("Record: %v", err)
		}
		sink += trace.Energy()
	}
	_ = sink
}

func BenchmarkTraceSegmentation(b *testing.B) {
	pm := energy.DefaultPiPowerModel()
	tm := energy.DefaultPiTimeModel()
	meter, err := energy.NewMeter(pm, 1000, 1)
	if err != nil {
		b.Fatalf("NewMeter: %v", err)
	}
	trace, err := meter.Record(energy.RoundSchedule(tm, 40, 2000, 2))
	if err != nil {
		b.Fatalf("Record: %v", err)
	}
	seg, err := energy.NewSegmenter(pm, 10)
	if err != nil {
		b.Fatalf("NewSegmenter: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seg.Segment(trace); err != nil {
			b.Fatalf("Segment: %v", err)
		}
	}
}

func BenchmarkGoldenSection(b *testing.B) {
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	for i := 0; i < b.N; i++ {
		if _, err := optim.GoldenSection(f, -100, 100, 1e-9); err != nil {
			b.Fatalf("GoldenSection: %v", err)
		}
	}
}

func BenchmarkFedAvgRound(b *testing.B) {
	setup := benchSetup(b)
	cfg := fl.Config{ClientsPerRound: 10, LocalEpochs: 5, LearningRate: 0.1, Seed: 1}
	engine, err := fl.NewEngine(cfg, setup.Shards)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	// One warmup round populates the pool's goroutine-stack free lists so
	// allocs/op is the steady-state count, stable at small -benchtime.
	if _, err := engine.Round(); err != nil {
		b.Fatalf("warmup Round: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Round(); err != nil {
			b.Fatalf("Round: %v", err)
		}
	}
}

// --- extension benches ----------------------------------------------------------

func BenchmarkQuantizeModel8(b *testing.B) {
	m := ml.NewModel(10, 784, ml.Softmax)
	rng := mat.NewRNG(3)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = rng.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := ml.QuantizeModel(m, ml.Quant8)
		if err != nil {
			b.Fatalf("QuantizeModel: %v", err)
		}
		if _, err := ml.DequantizeModel(data); err != nil {
			b.Fatalf("DequantizeModel: %v", err)
		}
	}
}

func BenchmarkSensitivityAnalysis(b *testing.B) {
	p := core.DefaultProblem()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sensitivity(p, 0.1); err != nil {
			b.Fatalf("Sensitivity: %v", err)
		}
	}
}

func BenchmarkParetoFrontier(b *testing.B) {
	p := core.DefaultProblem()
	tm := energy.DefaultPiTimeModel()
	for i := 0; i < b.N; i++ {
		if _, err := core.ParetoFrontier(p, tm, 3000, 500); err != nil {
			b.Fatalf("ParetoFrontier: %v", err)
		}
	}
}

// BenchmarkAblationACSInteger times the integer-domain ACS variant.
func BenchmarkAblationACSInteger(b *testing.B) {
	p := core.DefaultProblem()
	cfg := core.DefaultPlannerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveInteger(p, cfg); err != nil {
			b.Fatalf("SolveInteger: %v", err)
		}
	}
}

// BenchmarkRoundWithFaults measures the per-round cost of routing edge
// connections through faultnet wrappers configured to inject nothing (0%
// fault rate) against bare TCP: the wrapper's bookkeeping overhead, which
// should be noise next to local training.
func BenchmarkRoundWithFaults(b *testing.B) {
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 200
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		b.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 2)
	if err != nil {
		b.Fatalf("Partition: %v", err)
	}

	runCluster := func(b *testing.B, dial func(string, time.Duration) (net.Conn, error)) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		coord, err := flnet.NewCoordinator(flnet.CoordinatorConfig{
			FL: fl.Config{
				ClientsPerRound: 2,
				LocalEpochs:     1,
				LearningRate:    0.5,
				Seed:            1,
			},
			Classes:      train.Classes,
			Features:     train.Dim(),
			RoundTimeout: 30 * time.Second,
			JoinTimeout:  10 * time.Second,
		}, ln, test)
		if err != nil {
			b.Fatalf("NewCoordinator: %v", err)
		}
		defer coord.Shutdown()

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_ = flnet.RunEdgeServer(context.Background(), flnet.EdgeConfig{
					Addr:  coord.Addr().String(),
					Shard: shards[i],
					Seed:  uint64(i + 1),
					Dial:  dial,
				})
			}(i)
		}
		if err := coord.WaitForClients(ctx, 2); err != nil {
			b.Fatalf("WaitForClients: %v", err)
		}
		if _, err := coord.Round(ctx); err != nil { // warmup: steady-state allocs
			b.Fatalf("warmup Round: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coord.Round(ctx); err != nil {
				b.Fatalf("Round: %v", err)
			}
		}
		b.StopTimer()
		// Shutdown must precede waiting on the edges: they exit only after
		// the coordinator's farewell (or the listener closing).
		coord.Shutdown()
		wg.Wait()
	}

	b.Run("direct", func(b *testing.B) {
		runCluster(b, nil)
	})
	b.Run("faultnet-0pct", func(b *testing.B) {
		runCluster(b, faultnet.New(faultnet.Config{Seed: 1}).TCPDialer())
	})
}
