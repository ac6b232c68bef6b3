package eefei

import (
	"io"
	"time"

	"eefei/internal/core"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// This file exposes the analysis and extension surface of the library:
// plan sensitivity, the energy/time Pareto frontier, per-term energy
// breakdowns, lossy model-upload compression, and power-trace
// persistence.

// Analysis types, re-exported.
type (
	// SensitivityRow reports the plan's response to a perturbed constant.
	SensitivityRow = core.SensitivityRow
	// ParetoPoint is one energy/time trade-off.
	ParetoPoint = core.ParetoPoint
	// Breakdown splits a configuration's energy into compute vs
	// communication.
	Breakdown = core.Breakdown
	// QuantBits selects the lossy upload codec width.
	QuantBits = ml.QuantBits
)

// Quantization widths, re-exported.
const (
	Quant8  = ml.Quant8
	Quant16 = ml.Quant16
)

// Sensitivity re-solves the problem under ±delta relative perturbations of
// every constant; see core.Sensitivity.
func Sensitivity(p Problem, delta float64) ([]SensitivityRow, error) {
	return core.Sensitivity(p, delta)
}

// PlanDuration predicts the wall-clock time of executing a plan.
func PlanDuration(plan Plan, tm TimeModel, samplesPerServer int) time.Duration {
	return core.PlanDuration(plan, tm, samplesPerServer)
}

// ParetoFrontier enumerates the non-dominated energy/time configurations.
func ParetoFrontier(p Problem, tm TimeModel, samplesPerServer, eMax int) ([]ParetoPoint, error) {
	return core.ParetoFrontier(p, tm, samplesPerServer, eMax)
}

// EnergyBreakdown splits Ê(K, E) into its compute and communication terms.
func EnergyBreakdown(p Problem, k, e int) (Breakdown, error) {
	return core.EnergyBreakdown(p, k, e)
}

// QuantizeModel losslessly-shaped lossy compression of model parameters for
// upload (8 or 16 bits per parameter); DequantizeModel inverts it.
func QuantizeModel(m *Model, bits QuantBits) ([]byte, error) {
	return ml.QuantizeModel(m, bits)
}

// DequantizeModel decodes a QuantizeModel payload.
func DequantizeModel(data []byte) (*Model, error) {
	return ml.DequantizeModel(data)
}

// SaveTrace / LoadTrace persist 1 kHz power captures in the library's
// binary container.
var (
	SaveTrace = energy.SaveTrace
	LoadTrace = energy.LoadTrace
)

// Asynchronous federated learning, re-exported.
type (
	// AsyncConfig parameterizes staleness-weighted asynchronous FL.
	AsyncConfig = fl.AsyncConfig
	// AsyncUpdate records one asynchronous global update.
	AsyncUpdate = fl.AsyncUpdate
	// AsyncEngine runs FedAsync-style training over in-memory shards.
	AsyncEngine = fl.AsyncEngine
	// AsyncOption customizes an AsyncEngine (worker-pool sizes).
	AsyncOption = fl.AsyncOption
)

// NewAsyncEngine builds an asynchronous engine over the shards; test may be
// nil. Results are bit-identical for every worker-pool option: completion
// order comes from the engine's deterministic virtual-time scheduler, never
// from goroutine scheduling.
func NewAsyncEngine(cfg AsyncConfig, shards []*Dataset, test *Dataset, opts ...AsyncOption) (*AsyncEngine, error) {
	return fl.NewAsyncEngine(cfg, shards, test, opts...)
}

// Async engine options and stop-condition constructors, re-exported.
var (
	// WithAsyncParallelism caps concurrent local-training workers.
	WithAsyncParallelism = fl.WithAsyncParallelism
	// WithAsyncEvalParallelism caps the post-update evaluation workers.
	WithAsyncEvalParallelism = fl.WithAsyncEvalParallelism
	// MaxAsyncSteps stops after n asynchronous updates.
	MaxAsyncSteps = fl.MaxAsyncSteps
	// AsyncTargetAccuracy stops at a test-accuracy threshold.
	AsyncTargetAccuracy = fl.AsyncTargetAccuracy
)

// Per-round observability, re-exported: attach a RoundObserver (or a
// TraceWriter over an io.Writer) to an Engine or AsyncEngine via
// SetRoundObserver to stream one RoundStats per round/step.
type (
	// RoundStats is one round's phase timings and pool occupancy.
	RoundStats = fl.RoundStats
	// RoundObserver consumes RoundStats after each round or async step.
	RoundObserver = fl.RoundObserver
	// FuncObserver adapts a function to the RoundObserver interface.
	FuncObserver = fl.FuncObserver
	// TraceWriter is a RoundObserver that streams JSONL (cmd/tracefmt
	// renders the files it writes).
	TraceWriter = fl.TraceWriter
)

// NewTraceWriter streams each observed round as one JSON line on w.
func NewTraceWriter(w io.Writer) *TraceWriter { return fl.NewTraceWriter(w) }

// First-principles constant estimation, re-exported: derive σ², L and
// ‖ω0−ω*‖² from a dataset plus a near-optimal reference model, then
// aggregate them into bound constants via PhysicalConstants.Aggregate.
type EstimateOptions = core.EstimateOptions

// EstimatePhysical assembles PhysicalConstants from data; see
// core.EstimatePhysical.
func EstimatePhysical(reference *Model, shards []*Dataset, learningRate float64,
	alpha0, alpha1, alpha2 float64, opts EstimateOptions) (PhysicalConstants, error) {
	return core.EstimatePhysical(reference, shards, learningRate, alpha0, alpha1, alpha2, opts)
}

// EstimateGradientVariance computes the bound's σ² at a reference model.
func EstimateGradientVariance(reference *Model, shards []*Dataset) (float64, error) {
	return core.EstimateGradientVariance(reference, shards)
}
