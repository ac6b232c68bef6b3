package eefei

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"eefei/internal/energy"
	"eefei/internal/ml"
)

func TestSensitivityFacade(t *testing.T) {
	rows, err := Sensitivity(DefaultProblem(), 0.1)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if len(rows) != 12 {
		t.Errorf("rows = %d, want 12", len(rows))
	}
}

func TestParetoAndDurationFacade(t *testing.T) {
	p := DefaultProblem()
	tm := DefaultDeviceModel().Time
	frontier, err := ParetoFrontier(p, tm, 3000, 150)
	if err != nil {
		t.Fatalf("ParetoFrontier: %v", err)
	}
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	plan, err := PlanDefault()
	if err != nil {
		t.Fatalf("PlanDefault: %v", err)
	}
	d := PlanDuration(plan, tm, 3000)
	if d <= 0 {
		t.Errorf("PlanDuration = %v", d)
	}
	// The plan's duration is consistent with T rounds of the round length.
	if want := time.Duration(plan.T) * tm.RoundDuration(plan.E, 3000); d != want {
		t.Errorf("duration = %v, want %v", d, want)
	}
}

func TestEnergyBreakdownFacade(t *testing.T) {
	b, err := EnergyBreakdown(DefaultProblem(), 1, 43)
	if err != nil {
		t.Fatalf("EnergyBreakdown: %v", err)
	}
	if math.Abs(b.ComputeJoules+b.CommJoules-b.Total) > 1e-9 {
		t.Error("breakdown does not sum")
	}
}

func TestQuantizeFacade(t *testing.T) {
	model := ml.NewModel(10, 16, ml.Softmax)
	for i := range model.W.RawData() {
		model.W.RawData()[i] = 0.25
	}
	data, err := QuantizeModel(model, Quant8)
	if err != nil {
		t.Fatalf("QuantizeModel: %v", err)
	}
	back, err := DequantizeModel(data)
	if err != nil {
		t.Fatalf("DequantizeModel: %v", err)
	}
	if back.Classes() != model.Classes() || back.Features() != model.Features() {
		t.Error("shape lost through facade")
	}
	if d := back.ParamDistance(model); d > ml.MaxQuantError(model, Quant8)*float64(model.ParamCount()) {
		t.Errorf("reconstruction distance %v too large", d)
	}
}

func TestTracePersistenceFacade(t *testing.T) {
	pm := energy.DefaultPiPowerModel()
	meter, err := energy.NewMeter(pm, 1000, 1)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	trace, err := meter.Record(energy.RoundSchedule(energy.DefaultPiTimeModel(), 5, 100, 1))
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	path := filepath.Join(t.TempDir(), "t.eft")
	if err := SaveTrace(path, trace); err != nil {
		t.Fatalf("SaveTrace: %v", err)
	}
	back, err := LoadTrace(path)
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	if len(back.Samples) != len(trace.Samples) {
		t.Error("trace changed through facade persistence")
	}
}

func TestEstimateFacade(t *testing.T) {
	dcfg := SyntheticConfig{Samples: 300, Classes: 10, Side: 6, Noise: 0.3, BlobsPerClass: 2, Seed: 1}
	d, err := Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	shards, err := PartitionIID(d, 3, 1)
	if err != nil {
		t.Fatalf("PartitionIID: %v", err)
	}
	model := ml.NewModel(d.Classes, d.Dim(), ml.Softmax)
	phys, err := EstimatePhysical(model, shards, 0.1, 1, 1, 1, EstimateOptions{Seed: 1})
	if err != nil {
		t.Fatalf("EstimatePhysical: %v", err)
	}
	if phys.GradientVarianceAtOpt <= 0 || phys.Smoothness <= 0 {
		t.Errorf("physical constants degenerate: %+v", phys)
	}
	sigma, err := EstimateGradientVariance(model, shards)
	if err != nil || sigma != phys.GradientVarianceAtOpt {
		t.Errorf("facade σ² mismatch: %v (%v)", sigma, err)
	}
}
