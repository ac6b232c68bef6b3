package fl

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"eefei/internal/dataset"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// Asynchronous federated averaging (FedAsync-style): instead of synchronous
// rounds where K servers train in lockstep, every completed local training
// is applied to the global model immediately with a staleness-discounted
// mixing weight
//
//	ω ← (1 − α_s)·ω + α_s·ω_k,   α_s = α / (staleness + 1)
//
// where staleness counts how many global updates landed while client k was
// training. Asynchrony removes the synchronous-round straggler waste the
// heterogeneity ablation quantifies (the paper's Section II cites this
// line of work as the scheduling alternative).
//
// Completion order is driven by a deterministic virtual-time scheduler: each
// client owns a seeded duration stream (a per-client speed drawn once, a
// jitter factor drawn per dispatch) and completions pop off a min-heap keyed
// by (virtual time, client id). The order of applied versions — and
// therefore the global model — is a pure function of the seed, never of the
// worker-pool size or goroutine scheduling. Local training itself runs on
// the same bounded pool and local trainer as Engine.Round (trainPool), with
// its own atomic commit; see DESIGN.md §7 "Async parity".

// ErrAsync is returned (wrapped) for invalid async configurations.
var ErrAsync = errors.New("fl: invalid async config")

// asyncSchedSalt decorrelates the virtual-time duration streams from the
// (seed, client, version) training streams that share cfg.Seed.
const asyncSchedSalt = 0xda3e39cb94b95bdb

// AsyncConfig parameterizes an asynchronous run.
type AsyncConfig struct {
	// LocalEpochs is E, the local epochs per dispatched task.
	LocalEpochs int
	// LearningRate is the local SGD step size γ at version 0.
	LearningRate float64
	// Decay schedules the learning rate against the global version: a task
	// dispatched at version v trains with γ·Decay^v. Zero disables decay.
	Decay float64
	// MixWeight is α, the base mixing weight of a fresh (staleness-0)
	// update. The synchronous mean with K=1 corresponds to α = 1.
	MixWeight float64
	// MaxStaleness drops updates older than this many global versions
	// (0 = never drop).
	MaxStaleness int
	// Activation selects the classifier head.
	Activation ml.Activation
	// Seed drives the virtual-time completion schedule and every client's
	// local training stream.
	Seed uint64
}

// Validate checks the configuration.
func (c AsyncConfig) Validate() error {
	if c.LocalEpochs < 1 {
		return fmt.Errorf("E=%d: %w", c.LocalEpochs, ErrAsync)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("learning rate %v: %w", c.LearningRate, ErrAsync)
	}
	if math.IsInf(c.LearningRate, 0) || math.IsNaN(c.LearningRate) {
		return fmt.Errorf("learning rate %v: %w", c.LearningRate, ErrAsync)
	}
	if c.Decay < 0 || c.Decay > 1 || math.IsNaN(c.Decay) {
		return fmt.Errorf("decay %v: %w", c.Decay, ErrAsync)
	}
	if !(c.MixWeight > 0) || c.MixWeight > 1 {
		return fmt.Errorf("mix weight %v outside (0,1]: %w", c.MixWeight, ErrAsync)
	}
	if c.MaxStaleness < 0 {
		return fmt.Errorf("max staleness %d: %w", c.MaxStaleness, ErrAsync)
	}
	return nil
}

// AsyncUpdate records one applied (or dropped) asynchronous update.
type AsyncUpdate struct {
	// Step is the global version after this update (1-based).
	Step int
	// Client is the edge server that trained.
	Client int
	// Staleness is how many global versions landed during its training.
	Staleness int
	// Applied is false when the update exceeded MaxStaleness.
	Applied bool
	// MixWeight is the effective α_s used (0 when dropped).
	MixWeight float64
	// At is the virtual completion time of this update in scheduler units
	// (per-client seeded duration draws; see DESIGN.md §7 "Async parity").
	At float64
	// TrainLoss is the global loss after the update (NaN when dropped and
	// no evaluation was performed).
	TrainLoss float64
	// TestAccuracy is the post-update accuracy (NaN without a test set).
	TestAccuracy float64
}

// asyncEvent is one scheduled completion in the virtual-time queue.
type asyncEvent struct {
	at      float64
	client  int
	version int // global version at dispatch
}

// eventBefore orders the completion heap: virtual time first, client id as
// the deterministic tie-break.
func eventBefore(a, b asyncEvent) bool {
	return a.at < b.at || (a.at == b.at && a.client < b.client)
}

// AsyncOption customizes an AsyncEngine.
type AsyncOption func(*AsyncEngine)

// WithAsyncParallelism caps concurrent local-training workers; 1 forces
// sequential execution, 0 selects GOMAXPROCS. Results are bit-identical for
// every setting: a client's training stream is derived from
// (seed, client, version), never from which worker ran it.
func WithAsyncParallelism(n int) AsyncOption {
	return func(e *AsyncEngine) { e.pool.parallel = n }
}

// WithAsyncEvalParallelism caps the workers used for post-update evaluation
// (global loss over the shards, accuracy over the test set); 1 forces
// sequential evaluation, 0 selects GOMAXPROCS. Results are bit-identical for
// every setting (shard-order and chunk-order reductions).
func WithAsyncEvalParallelism(n int) AsyncOption {
	return func(e *AsyncEngine) { e.evalParallel = n }
}

// AsyncEngine simulates asynchronous FL over a deterministic virtual-time
// scheduler: every client trains continuously; completions pop off a seeded
// event queue and each applies to the global model with a staleness
// discount.
//
// The steady-state Step is allocation-free with a nil observer: local
// training reuses per-client snapshot models and per-worker Reset-able SGDs
// (each owning its gradient accumulator and batched-forward chunk scratch),
// the event queue is a slice-backed heap that never grows past the fleet
// size, and the staleness-discounted mix lands in a scratch model that is
// committed only after evaluation succeeds — a failing step can never
// publish a half-applied global model.
type AsyncEngine struct {
	cfg          AsyncConfig
	shards       []*dataset.Dataset
	totalSamples int
	global       *ml.Model
	test         *dataset.Dataset
	roundObs     RoundObserver
	sampleMem    bool
	evalParallel int

	// Virtual-time scheduler state. events is a min-heap over (at, client);
	// now is the time of the last popped completion; speed/durRNG hold each
	// client's seeded duration stream.
	events  []asyncEvent
	now     float64
	speed   []float64
	durRNG  []*mat.RNG
	started bool

	// Training scratch. locals holds each client's dispatch-time snapshot
	// (trained in place — indexed by client, the async analogue of the sync
	// engine's per-selection-slot models); pool queues the
	// dispatched-but-untrained clients, flushed at the start of every Step.
	locals []*ml.Model
	pool   trainPool

	// Commit and evaluation scratch: the mix is formed and evaluated in
	// mixScratch and only then copied into global.
	mixScratch *ml.Model
	shardLoss  shardLossMap
	testEval   *ml.Evaluator

	version int
	history []AsyncUpdate
}

// NewAsyncEngine builds an engine over the shards; test may be nil.
func NewAsyncEngine(cfg AsyncConfig, shards []*dataset.Dataset, test *dataset.Dataset, opts ...AsyncOption) (*AsyncEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dim, classes, total, err := checkShards(shards, ErrAsync)
	if err != nil {
		return nil, err
	}
	act := cfg.Activation
	if act == 0 {
		act = ml.Softmax
	}
	e := &AsyncEngine{
		cfg:          cfg,
		shards:       shards,
		totalSamples: total,
		global:       ml.NewModel(classes, dim, act),
		test:         test,
		evalParallel: runtime.GOMAXPROCS(0),
		// The pool trains on the same γ schedule and (seed, client, step)
		// streams as the synchronous engine, stepping by dispatch version.
		pool: trainPool{
			cfg: Config{
				LocalEpochs:  cfg.LocalEpochs,
				LearningRate: cfg.LearningRate,
				Decay:        cfg.Decay,
				Seed:         cfg.Seed,
			},
			shards:   shards,
			parallel: runtime.GOMAXPROCS(0),
			jobs:     make([]trainJob, 0, len(shards)),
		},
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.pool.parallel <= 0 {
		e.pool.parallel = runtime.GOMAXPROCS(0)
	}
	if e.evalParallel <= 0 {
		e.evalParallel = runtime.GOMAXPROCS(0)
	}
	n := len(shards)
	e.locals = make([]*ml.Model, n)
	for c := range e.locals {
		e.locals[c] = ml.NewModel(classes, dim, act)
	}
	e.events = make([]asyncEvent, 0, n)
	e.mixScratch = ml.NewModel(classes, dim, act)
	e.shardLoss.init(n)
	if test != nil {
		e.testEval = ml.NewEvaluator(e.evalParallel)
	}
	// Per-client duration streams, split off a dedicated scheduler RNG so
	// the completion schedule and the training streams never share draws.
	// Each client's mean task duration is fixed once in [0.5, 2.0) —
	// a 4× heterogeneity spread, the straggler population the paper's
	// Section II motivates asynchrony with.
	sched := mat.NewRNG(cfg.Seed ^ asyncSchedSalt)
	e.speed = make([]float64, n)
	e.durRNG = make([]*mat.RNG, n)
	for c := 0; c < n; c++ {
		e.durRNG[c] = sched.Split()
		e.speed[c] = 0.5 + 1.5*e.durRNG[c].Float64()
	}
	return e, nil
}

// Global returns the current global model.
func (e *AsyncEngine) Global() *ml.Model { return e.global }

// Version returns the number of applied global updates.
func (e *AsyncEngine) Version() int { return e.version }

// History returns all update records.
func (e *AsyncEngine) History() []AsyncUpdate { return e.history }

// SetRoundObserver attaches (or, with nil, detaches) a per-step
// observability sink. Each Step emits one RoundStats whose Round field is
// the step ordinal: the train phase covers the pool flush of pending local
// trainings (Workers/WorkerClaims report its fan-out), select the event-queue
// pop, aggregate the staleness-discounted mix, evaluate the post-update
// metrics. A staleness-dropped update reports Dropped=1 and skips the
// aggregate/evaluate phases. Must not be called mid-Step.
func (e *AsyncEngine) SetRoundObserver(o RoundObserver) { e.roundObs = o }

// SetMemSampling toggles per-step memstats sampling (observed steps only).
func (e *AsyncEngine) SetMemSampling(on bool) { e.sampleMem = on }

// dispatch hands client c the current global model: snapshot it into the
// client's local model, draw the task's virtual duration from the client's
// seeded stream, and schedule the completion. The client's training joins
// the pool queue and runs at the start of the next Step, at the learning
// rate and seed of the version it was dispatched at.
func (e *AsyncEngine) dispatch(c int) error {
	if err := e.locals[c].CopyFrom(e.global); err != nil {
		return fmt.Errorf("dispatch client %d: %w", c, err)
	}
	dur := e.speed[c] * (0.5 + e.durRNG[c].Float64())
	e.pushEvent(asyncEvent{at: e.now + dur, client: c, version: e.version})
	e.pool.add(c, e.version, e.locals[c])
	return nil
}

// pushEvent inserts ev into the completion min-heap.
func (e *AsyncEngine) pushEvent(ev asyncEvent) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(e.events[i], e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// popEvent removes and returns the earliest completion.
func (e *AsyncEngine) popEvent() asyncEvent {
	top := e.events[0]
	last := len(e.events) - 1
	e.events[0] = e.events[last]
	e.events = e.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && eventBefore(e.events[l], e.events[min]) {
			min = l
		}
		if r < last && eventBefore(e.events[r], e.events[min]) {
			min = r
		}
		if min == i {
			break
		}
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
	return top
}

// flush trains every pending dispatch on the pool and returns its fan-out
// and per-worker claims (0 and nil when nothing was pending). In steady
// state exactly one client is pending (the re-dispatch of the previous
// step's completion), so the flush runs inline and spawns nothing; the
// initial dispatch of the whole fleet fans out across the pool.
func (e *AsyncEngine) flush() (int, []int, error) {
	if len(e.pool.jobs) == 0 {
		return 0, nil, nil
	}
	claims, err := e.pool.run()
	e.pool.reset()
	if err != nil {
		return 0, nil, fmt.Errorf("async %w", err)
	}
	return len(claims), claims, nil
}

// Step processes one virtual-time completion: flush any pending local
// trainings through the worker pool, pop the earliest completion off the
// event queue, and apply its staleness-discounted update.
//
// The update commits atomically: the mix is formed in a scratch model and
// evaluated there, and only if every stage succeeds are the global model,
// version counter, and history advanced together (and the client
// re-dispatched). A failed step leaves the model state exactly as it was.
func (e *AsyncEngine) Step() (AsyncUpdate, error) {
	// Observability is pay-for-use: with no observer attached the step
	// takes no timestamps and allocates nothing extra.
	obs := e.roundObs
	var pc phaseClock
	if obs != nil {
		pc = newPhaseClock(e.sampleMem)
	}
	// First step: every client starts training at version 0, time 0.
	if !e.started {
		e.started = true
		for c := range e.shards {
			if err := e.dispatch(c); err != nil {
				return AsyncUpdate{}, err
			}
		}
	}
	// Train phase: flush the pending dispatches. Every popped completion
	// was dispatched in an earlier Step, so its snapshot is trained by now.
	workers, claims, err := e.flush()
	if err != nil {
		return AsyncUpdate{}, err
	}
	if obs != nil {
		pc.lap(PhaseTrain)
	}

	// Select phase: pop the earliest completion in virtual time.
	ev := e.popEvent()
	e.now = ev.at
	staleness := e.version - ev.version
	upd := AsyncUpdate{
		Client:       ev.client,
		Staleness:    staleness,
		At:           ev.at,
		TrainLoss:    math.NaN(),
		TestAccuracy: math.NaN(),
	}
	if obs != nil {
		pc.lap(PhaseSelect)
	}

	if e.cfg.MaxStaleness > 0 && staleness > e.cfg.MaxStaleness {
		// Too stale: discard the trained update (the wasted local work is
		// the energy cost asynchrony pays here) and restart the client from
		// the current global.
		upd.Step = e.version
		if err := e.dispatch(ev.client); err != nil {
			return AsyncUpdate{}, err
		}
		e.history = append(e.history, upd)
		if obs != nil {
			st := pc.finish(len(e.history) - 1)
			st.Workers = workers
			st.WorkerClaims = claims
			st.Dropped = 1
			obs.ObserveRound(st)
		}
		return upd, nil
	}

	// Aggregate phase: ω ← (1−α_s)·ω + α_s·ω_k in the scratch model; the
	// engine's state is untouched until the commit below.
	alpha := e.cfg.MixWeight / float64(staleness+1)
	if err := e.mixScratch.CopyFrom(e.global); err != nil {
		return AsyncUpdate{}, fmt.Errorf("async mix: %w", err)
	}
	e.mixScratch.Scale(1 - alpha)
	if err := e.mixScratch.AddScaled(alpha, e.locals[ev.client]); err != nil {
		return AsyncUpdate{}, fmt.Errorf("async mix: %w", err)
	}
	if obs != nil {
		pc.lap(PhaseAggregate)
	}

	// Evaluate phase, still against the scratch model.
	loss, err := e.shardLoss.lossOf(e.mixScratch, e.shards, e.totalSamples, e.evalParallel)
	if err != nil {
		return AsyncUpdate{}, fmt.Errorf("async step %d: %w", e.version, err)
	}
	upd.TrainLoss = loss
	if e.test != nil {
		acc, err := e.testEval.Accuracy(e.mixScratch, e.test)
		if err != nil {
			return AsyncUpdate{}, fmt.Errorf("async step %d accuracy: %w", e.version, err)
		}
		upd.TestAccuracy = acc
	}
	if obs != nil {
		pc.lap(PhaseEvaluate)
	}

	// Commit model, version, history, and the client's re-dispatch together.
	if err := e.global.CopyFrom(e.mixScratch); err != nil {
		return AsyncUpdate{}, fmt.Errorf("async commit: %w", err)
	}
	e.version++
	upd.Applied = true
	upd.MixWeight = alpha
	upd.Step = e.version
	if err := e.dispatch(ev.client); err != nil {
		return AsyncUpdate{}, err
	}
	e.history = append(e.history, upd)
	if obs != nil {
		st := pc.finish(len(e.history) - 1)
		st.Workers = workers
		st.WorkerClaims = claims
		obs.ObserveRound(st)
	}
	return upd, nil
}

// Run performs steps until the predicate over the history fires.
func (e *AsyncEngine) Run(stop func(history []AsyncUpdate) bool) ([]AsyncUpdate, error) {
	if stop == nil {
		return nil, fmt.Errorf("nil stop condition: %w", ErrAsync)
	}
	start := len(e.history)
	for !stop(e.history) {
		if _, err := e.Step(); err != nil {
			return e.history[start:], err
		}
	}
	return e.history[start:], nil
}

// MaxAsyncSteps stops after n steps (applied or dropped).
func MaxAsyncSteps(n int) func([]AsyncUpdate) bool {
	return func(h []AsyncUpdate) bool { return len(h) >= n }
}

// AsyncTargetAccuracy stops once an applied update reaches accuracy a.
func AsyncTargetAccuracy(a float64) func([]AsyncUpdate) bool {
	return func(h []AsyncUpdate) bool {
		return len(h) > 0 && h[len(h)-1].TestAccuracy >= a
	}
}
