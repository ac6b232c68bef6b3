package energy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eefei/internal/fl"
)

// Measured-energy calibration: the trace→energy loop. The paper's whole
// argument rests on attributing *measured* energy to the waiting / download /
// train / upload phases (Fig. 3, Table I); until now the per-phase Ledger was
// only ever filled from the analytic TimeModel, while the measured per-phase
// wall-clock recorded by fl.RoundObserver never flowed back into the energy
// model. A Calibrator closes that loop: attached as a RoundObserver it
// converts each completed round's measured phase durations into joules via
// the canonical PowerModel and accumulates them into a per-phase Ledger live;
// offline it replays persisted JSONL traces; and it refits the TimeModel from
// the accumulated measurements, reporting measured-vs-modeled drift per
// phase — the calibration step FedAdapt-style controllers assume as their
// reward signal.

// ErrCalibrate is returned (wrapped) for invalid calibrator configurations
// or refits over insufficient measurements.
var ErrCalibrate = errors.New("energy: invalid calibration")

// MapRoundPhase maps a measured coordination phase (fl.RoundObserver's
// select / train / aggregate / evaluate) onto the device energy phase its
// wall-clock is attributed to. The mapping follows the direction of model
// traffic each coordination stage drives on an edge device:
//
//	select    → waiting  (the device idles while K_t is chosen)
//	train     → train    (E local epochs)
//	aggregate → upload   (the coordinator is collecting local models)
//	evaluate  → download (the new global model is validated and redistributed)
func MapRoundPhase(p fl.Phase) Phase {
	switch p {
	case fl.PhaseSelect:
		return PhaseWaiting
	case fl.PhaseTrain:
		return PhaseTrain
	case fl.PhaseAggregate:
		return PhaseUpload
	case fl.PhaseEvaluate:
		return PhaseDownload
	}
	return PhaseWaiting
}

// Calibrator converts measured per-phase round timings into a per-phase
// energy ledger and a refitted TimeModel. It implements fl.RoundObserver, so
// it can be attached to any engine (directly or fanned out next to a
// TraceWriter via fl.Tee) — attaching one never perturbs training: observers
// are strictly passive, and same-seed runs with and without a Calibrator are
// bit-identical (TestCalibratorDoesNotPerturbTraining).
//
// ObserveRound is allocation-free in steady state (a fixed-size ledger and
// a ring of the last observationWindow training observations;
// BenchmarkCalibratorObserve pins 0 allocs/op), so the existing 0-alloc
// round pins hold with one attached.
// It is safe for concurrent use by multiple engines.
type Calibrator struct {
	mu     sync.Mutex
	power  PowerModel
	ledger *Ledger
	// radio, when set (WithRadioModel), prices the upload and download
	// phases from the round's measured frame-byte counts instead of the
	// wall-clock × phase-power product: rounds that put fewer bytes on the
	// wire (quantized uploads, residual downlinks) are charged fewer
	// joules even when their wall-clock is dominated by peer latency.
	// Rounds without byte telemetry keep the duration-based pricing.
	radio *RadioModel
	// epochs/samples describe the round shape (E, n_k) the *next* observed
	// rounds train with; they parameterize the TrainObservations the refit
	// consumes. SetRoundShape changes them mid-stream for varied feeds.
	epochs, samples int
	// durSum accumulates measured wall-clock per energy phase across all
	// observed rounds, indexed by phaseIndex.
	durSum [4]time.Duration
	// sumEN, sumE accumulate Σ E·n and Σ E across all observed rounds — the
	// exact design-row sums Drift needs to price the training law without
	// retaining every round.
	sumEN, sumE float64
	// obs is a fixed-capacity ring of the most recent training observations
	// (bounded so steady-state observation is allocation-free); next is the
	// overwrite cursor once the ring is full.
	obs  []TrainObservation
	next int
}

var _ fl.RoundObserver = (*Calibrator)(nil)

// observationWindow is how many of the most recent training observations
// the refit retains.
const observationWindow = 256

// CalibratorOption customizes a Calibrator.
type CalibratorOption func(*Calibrator)

// WithRadioModel prices the upload/download phases of observed rounds from
// their measured frame-byte counts (fl.RoundStats.UplinkBytes /
// DownlinkBytes, divided across the round's workers to keep the
// one-call-per-device-round convention) via the given bytes→joules radio
// model. Rounds carrying no byte telemetry fall back to wall-clock pricing.
func WithRadioModel(rm RadioModel) CalibratorOption {
	return func(c *Calibrator) {
		c.radio = &rm
	}
}

// NewCalibrator returns a calibrator pricing measured phase durations with
// the given canonical power model, for rounds training E epochs over n
// samples per selected device.
func NewCalibrator(power PowerModel, epochs, samples int, opts ...CalibratorOption) (*Calibrator, error) {
	if err := power.Validate(); err != nil {
		return nil, err
	}
	if epochs < 1 || samples < 0 {
		return nil, fmt.Errorf("round shape E=%d n=%d: %w", epochs, samples, ErrCalibrate)
	}
	c := &Calibrator{
		power:   power,
		ledger:  NewLedger(),
		epochs:  epochs,
		samples: samples,
		obs:     make([]TrainObservation, 0, observationWindow),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.radio != nil {
		if err := c.radio.Validate(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SetRoundShape updates the (E, n) shape attributed to subsequently observed
// rounds. Feeding rounds at several distinct shapes is what makes the
// two-coefficient training-law refit identifiable (see Refit).
func (c *Calibrator) SetRoundShape(epochs, samples int) error {
	if epochs < 1 || samples < 0 {
		return fmt.Errorf("round shape E=%d n=%d: %w", epochs, samples, ErrCalibrate)
	}
	c.mu.Lock()
	c.epochs, c.samples = epochs, samples
	c.mu.Unlock()
	return nil
}

// ObserveRound implements fl.RoundObserver: it prices each measured phase
// duration with the canonical power model and posts the joules to the
// ledger. The commit/bookkeeping remainder (Total beyond the four phases) is
// charged at waiting power — between phases the device is idle. One call
// accounts one device-round; callers modelling K devices per global round
// observe K records.
func (c *Calibrator) ObserveRound(s fl.RoundStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var phased time.Duration
	for p := fl.PhaseSelect; p <= fl.PhaseEvaluate; p++ {
		d := s.PhaseDuration(p)
		phased += d
		ep := MapRoundPhase(p)
		c.durSum[phaseIndex(ep)] += d
		j := c.power.Energy(ep, d)
		// Measured bytes beat measured wall-clock for the radio phases:
		// airtime · radio power prices what this device's share of the
		// round actually transferred, not how long it waited on peers.
		if c.radio != nil {
			workers := int64(s.Workers)
			if workers < 1 {
				workers = 1
			}
			// On a datagram transport the attempted packet bytes supersede
			// the frame bytes: the radio transmitted every attempt,
			// retransmissions included, which is exactly the ρ/p inflation
			// of Eq. 4's unlicensed band made measurable.
			up, down := s.UplinkBytes, s.DownlinkBytes
			if s.UplinkAttemptBytes > 0 {
				up = s.UplinkAttemptBytes
			}
			if s.DownlinkAttemptBytes > 0 {
				down = s.DownlinkAttemptBytes
			}
			switch {
			case ep == PhaseUpload && up > 0:
				j = c.radio.UploadEnergy(up / workers)
			case ep == PhaseDownload && down > 0:
				j = c.radio.DownloadEnergy(down / workers)
			}
		}
		c.ledger.Add(ep, j)
	}
	if rem := s.Total - phased; rem > 0 {
		c.durSum[phaseIndex(PhaseWaiting)] += rem
		c.ledger.Add(PhaseWaiting, c.power.Energy(PhaseWaiting, rem))
	}
	c.ledger.AddRound()

	o := TrainObservation{
		Epochs:   c.epochs,
		Samples:  c.samples,
		Duration: s.Train,
		Joules:   c.power.Energy(PhaseTrain, s.Train),
	}
	if len(c.obs) < cap(c.obs) {
		c.obs = append(c.obs, o)
	} else {
		c.obs[c.next] = o
		c.next = (c.next + 1) % cap(c.obs)
	}
	c.sumEN += float64(c.epochs) * float64(c.samples)
	c.sumE += float64(c.epochs)
}

// Replay feeds persisted round records — e.g. a decoded -trace JSONL
// (fl.ReadTrace) — through the live accounting path, giving offline traces
// the same measured-energy ledger a live run accumulates.
func (c *Calibrator) Replay(stats []fl.RoundStats) {
	for _, s := range stats {
		c.ObserveRound(s)
	}
}

// Ledger returns the live measured-energy ledger. The calibrator keeps
// posting to it; callers wanting a snapshot should read it between rounds.
func (c *Calibrator) Ledger() *Ledger { return c.ledger }

// Rounds returns how many device-rounds have been observed.
func (c *Calibrator) Rounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.Rounds()
}

// PhaseWallClock returns the total measured wall-clock attributed to one
// energy phase across all observed rounds.
func (c *Calibrator) PhaseWallClock(p Phase) time.Duration {
	i := phaseIndex(p)
	if i < 0 || i >= len(c.durSum) {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durSum[i]
}

// Refit recovers a TimeModel from the accumulated measurements: the training
// law t = a0·E·n + a1·E by least squares over the retained observations
// (energy.FitDurations — the Table-I fit), and waiting / download / upload as
// mean measured durations per round.
//
// The two-coefficient fit needs observations at ≥ 2 distinct (E, n) shapes;
// with a single shape the split between a0 and a1 is unidentifiable, so the
// refit degrades deliberately: the whole mean training duration is
// attributed to the per-sample term (or the per-epoch term when n = 0).
func (c *Calibrator) Refit() (TimeModel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rounds := c.ledger.Rounds()
	if rounds == 0 || len(c.obs) == 0 {
		return TimeModel{}, fmt.Errorf("refit over %d observed rounds: %w", rounds, ErrCalibrate)
	}
	tm := TimeModel{
		Waiting:  c.durSum[phaseIndex(PhaseWaiting)] / time.Duration(rounds),
		Download: c.durSum[phaseIndex(PhaseDownload)] / time.Duration(rounds),
		Upload:   c.durSum[phaseIndex(PhaseUpload)] / time.Duration(rounds),
	}
	if c.uniformShape() {
		var mean time.Duration
		for _, o := range c.obs {
			mean += o.Duration
		}
		mean /= time.Duration(len(c.obs))
		e, n := c.obs[0].Epochs, c.obs[0].Samples
		if n > 0 {
			tm.TrainPerSample = mean / time.Duration(e*n)
		} else {
			tm.TrainPerEpoch = mean / time.Duration(e)
		}
		return tm, nil
	}
	perSample, perEpoch, err := FitDurations(c.obs)
	if err != nil {
		return TimeModel{}, fmt.Errorf("refit: %w", err)
	}
	tm.TrainPerSample, tm.TrainPerEpoch = perSample, perEpoch
	return tm, nil
}

// uniformShape reports whether every retained observation shares one (E, n)
// shape — the rank-deficient case the least-squares fit cannot split.
// Callers must hold c.mu.
func (c *Calibrator) uniformShape() bool {
	for _, o := range c.obs[1:] {
		if o.Epochs != c.obs[0].Epochs || o.Samples != c.obs[0].Samples {
			return false
		}
	}
	return true
}

// PhaseDrift compares the measured mean duration of one phase against an
// analytic TimeModel's prediction.
type PhaseDrift struct {
	Phase Phase
	// Measured is the mean measured wall-clock per round.
	Measured time.Duration
	// Modeled is the model's mean duration per round (the training phase is
	// priced per observed round via the accumulated Σ E·n and Σ E).
	Modeled time.Duration
	// Pct is 100·(Measured−Modeled)/Modeled, or 0 when Modeled is zero.
	Pct float64
}

// Drift reports per-phase measured-vs-modeled drift against tm over all
// observed rounds, in canonical phase order. It is how a deployment checks
// whether the analytic model it planned with still matches what the fleet
// actually does.
func (c *Calibrator) Drift(tm TimeModel) []PhaseDrift {
	c.mu.Lock()
	defer c.mu.Unlock()
	rounds := c.ledger.Rounds()
	if rounds == 0 {
		return nil
	}
	out := make([]PhaseDrift, 0, len(Phases))
	for _, p := range Phases {
		d := PhaseDrift{Phase: p, Measured: c.durSum[phaseIndex(p)] / time.Duration(rounds)}
		switch p {
		case PhaseTrain:
			sec := (tm.TrainPerSample.Seconds()*c.sumEN + tm.TrainPerEpoch.Seconds()*c.sumE) / float64(rounds)
			d.Modeled = time.Duration(sec * float64(time.Second))
		case PhaseWaiting:
			d.Modeled = tm.Waiting
		case PhaseDownload:
			d.Modeled = tm.Download
		case PhaseUpload:
			d.Modeled = tm.Upload
		}
		if d.Modeled > 0 {
			d.Pct = 100 * (d.Measured.Seconds() - d.Modeled.Seconds()) / d.Modeled.Seconds()
		}
		out = append(out, d)
	}
	return out
}
