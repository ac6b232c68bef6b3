package sim

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// quickSystem builds a 10-server system on the reduced synthetic dataset.
func quickSystem(t *testing.T, mutate func(*Config)) (*System, *dataset.Dataset) {
	t.Helper()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 1000
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 10)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Servers = 10
	cfg.FL = fl.Config{
		ClientsPerRound: 4,
		LocalEpochs:     5,
		LearningRate:    0.5,
		Decay:           0.99,
		Activation:      ml.Softmax,
		Seed:            1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := New(cfg, shards, test)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys, test
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := New(cfg, nil, nil); !errors.Is(err, ErrSim) {
		t.Errorf("no shards = %v, want ErrSim", err)
	}
}

func TestRunAccountsEnergyPerRound(t *testing.T) {
	sys, _ := quickSystem(t, nil)
	res, err := sys.Run(fl.MaxRounds(5))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.History) != 5 || len(res.Rounds) != 5 {
		t.Fatalf("history %d, rounds %d, want 5 each", len(res.History), len(res.Rounds))
	}
	// Each round: K=4 servers, 100 samples each, E=5.
	want := 4 * sys.cfg.Device.RoundEnergy(5, 100)
	for i, re := range res.Rounds {
		if math.Abs(re.Joules-want)/want > 1e-9 {
			t.Errorf("round %d joules = %v, want %v", i, re.Joules, want)
		}
		if re.CollectionJoules != 0 {
			t.Errorf("preloaded run has collection energy %v", re.CollectionJoules)
		}
		if re.Duration != sys.cfg.Device.Time.RoundDuration(5, 100) {
			t.Errorf("round %d duration = %v", i, re.Duration)
		}
	}
	if res.Ledger.Rounds() != 5 {
		t.Errorf("ledger rounds = %d, want 5", res.Ledger.Rounds())
	}
	if math.Abs(res.TotalJoules()-5*want)/(5*want) > 1e-9 {
		t.Errorf("total = %v, want %v", res.TotalJoules(), 5*want)
	}
}

func TestLedgerPhaseBreakdown(t *testing.T) {
	sys, _ := quickSystem(t, nil)
	res, err := sys.Run(fl.MaxRounds(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	dm := sys.cfg.Device
	// 3 rounds × 4 servers ×  per-phase energy.
	if got, want := res.Ledger.Phase(energy.PhaseTrain), 12*dm.TrainEnergy(5, 100); math.Abs(got-want) > 1e-9 {
		t.Errorf("train ledger = %v, want %v", got, want)
	}
	if got, want := res.Ledger.Phase(energy.PhaseUpload), 12*dm.UploadEnergy(); math.Abs(got-want) > 1e-9 {
		t.Errorf("upload ledger = %v, want %v", got, want)
	}
}

func TestRunWithIoTCollection(t *testing.T) {
	sysPre, _ := quickSystem(t, nil)
	resPre, err := sysPre.Run(fl.MaxRounds(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sysCollect, _ := quickSystem(t, func(c *Config) { c.Preloaded = false })
	resCollect, err := sysCollect.Run(fl.MaxRounds(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resCollect.CollectionJoules <= 0 {
		t.Fatal("collection energy must be positive when not preloaded")
	}
	// Licensed band: collection energy is deterministic ρ·n per selection.
	want := 3 * 4 * sysCollect.cfg.Uplink.CollectionEnergy(100)
	if math.Abs(resCollect.CollectionJoules-want)/want > 1e-9 {
		t.Errorf("collection = %v, want %v", resCollect.CollectionJoules, want)
	}
	if resCollect.TotalJoules() <= resPre.TotalJoules() {
		t.Error("collecting data must cost more than preloaded")
	}
}

func TestTrainingConvergesInSim(t *testing.T) {
	sys, _ := quickSystem(t, nil)
	res, err := sys.Run(fl.AnyOf(fl.TargetAccuracy(0.85), fl.MaxRounds(60)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalAccuracy < 0.8 {
		t.Errorf("final accuracy = %v, want >= 0.8", res.FinalAccuracy)
	}
	if res.FinalLoss >= res.History[0].TrainLoss {
		t.Error("loss must decrease")
	}
	if res.WallClock <= 0 {
		t.Error("virtual wall clock must advance")
	}
}

func TestTraceServerReproducesFig3Pattern(t *testing.T) {
	sys, _ := quickSystem(t, func(c *Config) {
		// Full participation so the traced server is active every round.
		c.FL.ClientsPerRound = 10
	})
	res, err := sys.Run(fl.MaxRounds(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	trace, err := sys.TraceServer(res.History, 0, 2, 9)
	if err != nil {
		t.Fatalf("TraceServer: %v", err)
	}
	seg, err := energy.NewSegmenter(sys.cfg.Device.Power, 10)
	if err != nil {
		t.Fatalf("NewSegmenter: %v", err)
	}
	segments, err := seg.Segment(trace)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	if got := energy.CountRounds(segments); got != 2 {
		t.Errorf("trace shows %d rounds, want 2 (the Fig. 3 pattern)", got)
	}
	// Mean powers per phase near the paper's levels.
	reports, err := seg.Report(trace)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if len(reports) != 4 {
		t.Errorf("want all 4 phases in an active-server trace, got %d", len(reports))
	}
}

func TestTraceServerIdleWhenNotSelected(t *testing.T) {
	sys, _ := quickSystem(t, func(c *Config) {
		c.FL.ClientsPerRound = 1
	})
	res, err := sys.Run(fl.MaxRounds(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Find a server never selected in the first 4 rounds.
	selected := make(map[int]bool)
	for _, rec := range res.History {
		for _, s := range rec.Selected {
			selected[s] = true
		}
	}
	idle := -1
	for s := 0; s < 10; s++ {
		if !selected[s] {
			idle = s
			break
		}
	}
	if idle == -1 {
		t.Skip("every server was selected; selection randomness left no idle server")
	}
	trace, err := sys.TraceServer(res.History, idle, 4, 3)
	if err != nil {
		t.Fatalf("TraceServer: %v", err)
	}
	if mp := trace.MeanPower(); math.Abs(mp-sys.cfg.Device.Power.Waiting) > 0.05 {
		t.Errorf("idle server mean power = %v, want ≈%v", mp, sys.cfg.Device.Power.Waiting)
	}
}

func TestTraceServerErrors(t *testing.T) {
	sys, _ := quickSystem(t, nil)
	res, err := sys.Run(fl.MaxRounds(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := sys.TraceServer(res.History, 99, 1, 1); !errors.Is(err, ErrSim) {
		t.Errorf("bad server = %v, want ErrSim", err)
	}
	if _, err := sys.TraceServer(nil, 0, 1, 1); !errors.Is(err, ErrSim) {
		t.Errorf("no history = %v, want ErrSim", err)
	}
}

func TestRunNilStop(t *testing.T) {
	sys, _ := quickSystem(t, nil)
	if _, err := sys.Run(nil); !errors.Is(err, ErrSim) {
		t.Errorf("nil stop = %v, want ErrSim", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		sys, _ := quickSystem(t, nil)
		res, err := sys.Run(fl.MaxRounds(4))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.TotalJoules() + res.FinalLoss
	}
	if run() != run() {
		t.Error("identical configs must produce identical simulations")
	}
}

func TestConfigObserverThreaded(t *testing.T) {
	var rounds []int
	sys, _ := quickSystem(t, func(cfg *Config) {
		cfg.Observer = fl.FuncObserver(func(s fl.RoundStats) {
			rounds = append(rounds, s.Round)
		})
	})
	res, err := sys.Run(fl.MaxRounds(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rounds) != 3 {
		t.Fatalf("observer saw %d rounds, want 3", len(rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Errorf("observer round %d = %d, want %d", i, r, i)
		}
	}

	// A passive observer must not perturb the simulation.
	plain, _ := quickSystem(t, nil)
	base, err := plain.Run(fl.MaxRounds(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalLoss != base.FinalLoss || res.TotalJoules() != base.TotalJoules() {
		t.Error("attaching an observer changed the simulation result")
	}
}
