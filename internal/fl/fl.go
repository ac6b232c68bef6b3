// Package fl implements the in-process federated-learning substrate the
// paper's FEI system runs: FedAvg coordination (Section III-A) across edge
// servers holding disjoint shards, with uniform client selection, local
// epoch counts E, per-round learning-rate decay, parallel local training,
// and stop conditions on rounds / loss / accuracy. The networked counterpart
// lives in package flnet; both run this package's round.
package fl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"eefei/internal/dataset"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// ErrConfig is returned (wrapped) for invalid engine configurations.
var ErrConfig = errors.New("fl: invalid config")

// Config are the federated hyper-parameters of one training run.
type Config struct {
	// ClientsPerRound is K, the number of edge servers selected each round.
	ClientsPerRound int
	// LocalEpochs is E, the local SGD epochs per selected server per round.
	LocalEpochs int
	// LearningRate is γ at round 0.
	LearningRate float64
	// Decay multiplies the learning rate once per global round (paper:
	// 0.99). Zero disables decay.
	Decay float64
	// BatchSize is the local mini-batch size; 0 selects full batch (the
	// paper's setting).
	BatchSize int
	// Activation selects the classifier head.
	Activation ml.Activation
	// ProximalMu enables FedProx local training with strength µ (0 = plain
	// FedAvg, the paper's algorithm).
	ProximalMu float64
	// Seed drives client selection and any mini-batch shuffling.
	Seed uint64
}

// DefaultConfig mirrors the paper's Table II with K=10, E=40.
func DefaultConfig() Config {
	return Config{
		ClientsPerRound: 10,
		LocalEpochs:     40,
		LearningRate:    0.01,
		Decay:           0.99,
		Activation:      ml.Softmax,
		Seed:            1,
	}
}

// RoundLearningRate returns γ_t = γ0 · Decay^t, the local step size of
// round t. Decay zero keeps γ0 every round.
func (c Config) RoundLearningRate(t int) float64 {
	if c.Decay <= 0 {
		return c.LearningRate
	}
	return c.LearningRate * math.Pow(c.Decay, float64(t))
}

// Validate checks the configuration against the number of available shards.
func (c Config) Validate(shards int) error {
	if c.ClientsPerRound < 1 || c.ClientsPerRound > shards {
		return fmt.Errorf("K=%d with %d shards: %w", c.ClientsPerRound, shards, ErrConfig)
	}
	if c.LocalEpochs < 1 {
		return fmt.Errorf("E=%d: %w", c.LocalEpochs, ErrConfig)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("learning rate %v: %w", c.LearningRate, ErrConfig)
	}
	if c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("decay %v: %w", c.Decay, ErrConfig)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("batch size %d: %w", c.BatchSize, ErrConfig)
	}
	if c.ProximalMu < 0 {
		return fmt.Errorf("proximal mu %v: %w", c.ProximalMu, ErrConfig)
	}
	return nil
}

// RoundRecord captures one global coordination round.
type RoundRecord struct {
	// Round is the zero-based round index t.
	Round int
	// Selected are the participating client indices K_t.
	Selected []int
	// TrainLoss is the global loss F(ω_{t+1}) over the union of all shards,
	// measured after aggregation.
	TrainLoss float64
	// TestAccuracy is the post-aggregation accuracy on the test set, or NaN
	// when no test set is attached.
	TestAccuracy float64
	// LearningRate is the γ used for this round's local training.
	LearningRate float64
	// LocalLosses holds each selected client's final local training loss,
	// parallel to Selected.
	LocalLosses []float64
	// Dropped lists clients that were selected this round but failed to
	// deliver an update before the round closed (networked runs with fault
	// tolerance only; nil for in-process training). Their local-training
	// and partial-upload energy is wasted work that experiments can charge
	// against the round.
	Dropped []int
	// Rejoins counts client re-registrations the coordinator accepted
	// since the previous completed round (networked runs only). It is
	// wall-clock telemetry: a reconnect racing a round boundary may be
	// attributed to either neighbouring round.
	Rejoins int
	// Retries counts in-round delivery repairs: a selected client whose
	// connection failed mid-round re-registered within the coordinator's
	// rejoin grace window and this round's request was re-sent on the
	// fresh connection (networked runs with RejoinGrace only). Like
	// Rejoins it is wall-clock telemetry — whether a failure is repaired
	// on the first or a later attempt depends on reconnect latency.
	Retries int
	// DownlinkBytes / UplinkBytes are the frame bytes the coordinator
	// actually put on / took off the wire this round (networked runs only;
	// zero for in-process training): request frames to the selected
	// clients and their reply frames respectively, 5-byte frame headers
	// included. They are the measured transfer volume the bytes→joules
	// radio energy model prices, replacing the analytic estimate.
	DownlinkBytes int64
	UplinkBytes   int64
	// The *AttemptBytes / *DeliveredBytes pairs are only set when the round
	// ran over a datagram transport with per-attempt accounting
	// (fldgram): attempted counts every packet transmission including
	// retransmissions and injected drops — the energy the radio actually
	// spent — while delivered counts unique acknowledged packets, both at
	// wire size (datagram headers included). Their ratio is the measured
	// expected attempts per delivery, which Eq. 4 predicts converges to
	// 1/p on the unlicensed band. Zero on stream transports.
	DownlinkAttemptBytes   int64
	DownlinkDeliveredBytes int64
	UplinkAttemptBytes     int64
	UplinkDeliveredBytes   int64
}

// Engine runs the paper's synchronous FedAvg round (see RoundWith). An
// engine built by NewEngine trains in-memory shards on a bounded worker
// pool; one built by NewDispatchEngine has no shards of its own and is
// driven by a caller that dispatches local training elsewhere — package
// flnet's Coordinator, over the wire.
//
// The in-process hot path is allocation-free after the first round: local
// training reuses per-slot scratch models and the pool's per-worker
// optimizers (each owning its gradient accumulator, batched-forward chunk
// scratch, shuffle buffer, and RNG stream), the aggregate lands in a scratch
// model that is committed only when the whole round — including evaluation —
// succeeds, and global loss / test accuracy are computed by a shard-parallel
// map-reduce over per-worker evaluators. See DESIGN.md §7 for the
// scratch-ownership rules.
type Engine struct {
	cfg          Config
	global       *ml.Model
	test         *dataset.Dataset
	rng          *mat.RNG
	evalParallel int
	testEval     *ml.Evaluator
	aggScratch   *ml.Model

	// mu is held while a round reads its observer and while it commits, so
	// readers on other goroutines (the Coordinator's Global and History)
	// see model, round counter and history advance together.
	mu        sync.Locker
	roundObs  RoundObserver
	sampleMem bool
	round     int
	history   []RoundRecord

	// In-process training (NewEngine only). clients lists every shard as a
	// selection candidate; localModels holds one scratch model per selection
	// slot, each slot's result surviving until aggregation.
	shards       []*dataset.Dataset
	totalSamples int
	clients      []int
	pool         trainPool
	localModels  []*ml.Model
	updates      []Update
	shardLoss    shardLossMap
}

// Option customizes an Engine.
type Option func(*Engine)

// WithTestSet attaches a held-out evaluation set; rounds then report
// TestAccuracy.
func WithTestSet(test *dataset.Dataset) Option {
	return func(e *Engine) { e.test = test }
}

// WithRoundObserver attaches a per-round observability sink (phase timings,
// throughput, pool occupancy — see RoundStats). Nil detaches; with no
// observer the round loop takes no timestamps at all.
func WithRoundObserver(o RoundObserver) Option {
	return func(e *Engine) { e.roundObs = o }
}

// WithParallelism caps concurrent local-training workers; 1 forces
// sequential execution, 0 selects GOMAXPROCS. Results are bit-identical for
// every setting: a client's training stream is derived from (seed, client,
// round), never from which worker ran it.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.pool.parallel = n }
}

// WithEvalParallelism caps the workers used for post-aggregation evaluation
// (global loss over the shards, accuracy over the test set); 1 forces
// sequential evaluation, 0 selects GOMAXPROCS. Results are bit-identical
// for every setting: per-shard losses are reduced in shard order and the
// test pass uses a fixed chunk decomposition.
func WithEvalParallelism(n int) Option {
	return func(e *Engine) { e.evalParallel = n }
}

// NewEngine validates the config and builds an engine over the given shards.
// All shards must agree on dimensionality and class count.
func NewEngine(cfg Config, shards []*dataset.Dataset, opts ...Option) (*Engine, error) {
	dim, classes, total, err := checkShards(shards, ErrConfig)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(len(shards)); err != nil {
		return nil, err
	}
	e := newEngine(cfg, classes, dim, nil, &sync.Mutex{})
	e.shards, e.totalSamples = shards, total
	e.pool = trainPool{cfg: cfg, shards: shards, ref: e.global, parallel: runtime.GOMAXPROCS(0)}
	e.evalParallel = runtime.GOMAXPROCS(0)
	for _, opt := range opts {
		opt(e)
	}
	if e.pool.parallel <= 0 {
		e.pool.parallel = runtime.GOMAXPROCS(0)
	}
	if e.evalParallel <= 0 {
		e.evalParallel = runtime.GOMAXPROCS(0)
	}
	e.clients = make([]int, len(shards))
	for i := range e.clients {
		e.clients[i] = i
	}
	e.shardLoss.init(len(shards))
	return e, nil
}

// NewDispatchEngine builds an engine with no shards of its own, for a caller
// that dispatches each round's local training itself through RoundWith.
// The config is validated as for NewEngine, except that K is checked
// against the candidates of each round rather than a shard count. The
// global model is classes×features; test may be nil and is evaluated
// sequentially. mu is held around every commit and observer read, so the
// caller can read Global and History on other goroutines under the same
// lock.
func NewDispatchEngine(cfg Config, classes, features int, test *dataset.Dataset, mu sync.Locker) (*Engine, error) {
	if err := cfg.Validate(cfg.ClientsPerRound); err != nil {
		return nil, err
	}
	return newEngine(cfg, classes, features, test, mu), nil
}

func newEngine(cfg Config, classes, features int, test *dataset.Dataset, mu sync.Locker) *Engine {
	act := cfg.Activation
	if act == 0 {
		act = ml.Softmax
	}
	return &Engine{
		cfg:        cfg,
		global:     ml.NewModel(classes, features, act),
		aggScratch: ml.NewModel(classes, features, act),
		test:       test,
		rng:        mat.NewRNG(cfg.Seed),
		mu:         mu,
	}
}

// Global returns the current global model (live reference; callers must not
// mutate it mid-run).
func (e *Engine) Global() *ml.Model { return e.global }

// Rounds returns how many rounds have completed.
func (e *Engine) Rounds() int { return e.round }

// History returns the accumulated round records.
func (e *Engine) History() []RoundRecord { return e.history }

// SetRoundObserver attaches (or, with nil, detaches) the per-round
// observability sink after construction — cmd/feisim uses this to wire its
// -trace flag through the simulator. A round in flight keeps the observer
// it started with.
func (e *Engine) SetRoundObserver(o RoundObserver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.roundObs = o
}

// SetMemSampling toggles sampling runtime.ReadMemStats around every
// observed round, filling RoundStats.Mallocs/AllocBytes. It has no effect
// without a RoundObserver.
func (e *Engine) SetMemSampling(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sampleMem = on
}

// Shards returns the number of edge servers.
func (e *Engine) Shards() int { return len(e.shards) }

// Round performs one full FedAvg round over the in-memory shards: select
// K_t, broadcast ω_t, train E local epochs on each selected shard on the
// worker pool, aggregate per Eq. (2), and report the shard-parallel global
// loss F(ω_{t+1}) as TrainLoss. Every selected client must deliver. The
// round commits atomically (see RoundWith).
func (e *Engine) Round() (RoundRecord, error) {
	return e.RoundWith(e.clients, 0, e.trainShards, e.globalLossOf)
}

// trainShards is the in-process dispatch: each selected shard trains on the
// pool from a fresh copy of the global model in its slot's scratch model.
func (e *Engine) trainShards(rec RoundRecord) (RoundRecord, []Update, []int, error) {
	for len(e.localModels) < len(rec.Selected) {
		e.localModels = append(e.localModels, ml.NewModel(e.global.Classes(), e.global.Features(), e.global.Act))
	}
	e.pool.reset()
	for slot, c := range rec.Selected {
		if err := e.localModels[slot].CopyFrom(e.global); err != nil {
			return rec, nil, nil, fmt.Errorf("client %d: %w", c, err)
		}
		e.pool.add(c, rec.Round, e.localModels[slot])
	}
	claims, err := e.pool.run()
	if err != nil {
		return rec, nil, claims, err
	}
	e.updates = e.updates[:0]
	for _, j := range e.pool.jobs {
		e.updates = append(e.updates, Update{Client: j.client, Model: j.model, Loss: j.loss})
	}
	return rec, e.updates, claims, nil
}

// GlobalLoss evaluates the global objective F(ω) = Σ_k (n_k/n)·F_k(ω) over
// all shards.
func (e *Engine) GlobalLoss() (float64, error) {
	return e.globalLossOf(e.global, nil)
}

// globalLossOf runs the shard-parallel map-reduce for F(ω) over up to
// evalParallel workers; see shardLossMap for the bit-identity and spawn-gate
// contracts. Round reports it as TrainLoss.
func (e *Engine) globalLossOf(m *ml.Model, _ []Update) (float64, error) {
	return e.shardLoss.lossOf(m, e.shards, e.totalSamples, e.evalParallel)
}

// StopCondition inspects the history after each round and reports whether
// training should stop.
type StopCondition func(history []RoundRecord) bool

// MaxRounds stops after n rounds.
func MaxRounds(n int) StopCondition {
	return func(h []RoundRecord) bool { return len(h) >= n }
}

// TargetAccuracy stops once the latest test accuracy reaches a.
func TargetAccuracy(a float64) StopCondition {
	return func(h []RoundRecord) bool {
		return len(h) > 0 && h[len(h)-1].TestAccuracy >= a
	}
}

// TargetLoss stops once the latest global training loss falls to l.
func TargetLoss(l float64) StopCondition {
	return func(h []RoundRecord) bool {
		return len(h) > 0 && h[len(h)-1].TrainLoss <= l
	}
}

// AnyOf stops when any of the given conditions holds.
func AnyOf(conds ...StopCondition) StopCondition {
	return func(h []RoundRecord) bool {
		for _, c := range conds {
			if c(h) {
				return true
			}
		}
		return false
	}
}

// Run executes rounds until stop fires and returns the records produced by
// this call. A nil stop is rejected — it would loop forever.
func (e *Engine) Run(stop StopCondition) ([]RoundRecord, error) {
	if stop == nil {
		return nil, fmt.Errorf("nil stop condition: %w", ErrConfig)
	}
	start := len(e.history)
	for !stop(e.history) {
		if _, err := e.Round(); err != nil {
			return e.history[start:], err
		}
	}
	return e.history[start:], nil
}
