package fl

import (
	"fmt"
	"math"

	"eefei/internal/ml"
)

// RoundWith runs one synchronous FedAvg round (paper Section III-A), the one
// round both Engine.Round and flnet's Coordinator.Round run:
//
//  1. select: draw K_t uniformly without replacement from candidates and
//     fix γ_t = Config.RoundLearningRate(t);
//  2. train: hand the record (Round, Selected, LearningRate set) to train,
//     which trains the selected clients and returns the updates of those
//     that delivered, in selection order, plus the record with any
//     transport telemetry (Dropped, Rejoins, Retries, byte counters)
//     filled in, the per-worker claims of a local pool (nil if none), and
//     its first failure;
//  3. quorum: the round needs every selected client when minReplies is 0,
//     and minReplies of them otherwise;
//  4. aggregate the survivors per Eq. (2) into a scratch model;
//  5. evaluate: TrainLoss is trainLoss of the aggregate, TestAccuracy is
//     measured on the test set, if any;
//  6. commit global model, round counter and history together, then hand
//     the round's RoundStats to the observer.
//
// A failed round leaves the engine exactly as it was, so callers can retry
// or abort without inheriting a half-advanced state.
func (e *Engine) RoundWith(
	candidates []int, minReplies int,
	train func(RoundRecord) (RoundRecord, []Update, []int, error),
	trainLoss func(agg *ml.Model, updates []Update) (float64, error),
) (RoundRecord, error) {
	// Observability is pay-for-use: with no observer attached the round
	// takes no timestamps and allocates nothing extra.
	e.mu.Lock()
	obs, sampleMem := e.roundObs, e.sampleMem
	e.mu.Unlock()
	var pc phaseClock
	if obs != nil {
		pc = newPhaseClock(sampleMem)
	}

	k := e.cfg.ClientsPerRound
	if k > len(candidates) {
		return RoundRecord{}, fmt.Errorf("K=%d of %d alive clients: %w", k, len(candidates), ErrAggregate)
	}
	selected := e.rng.Sample(len(candidates), k)
	for i, j := range selected {
		selected[i] = candidates[j]
	}
	rec := RoundRecord{
		Round:        e.round,
		Selected:     selected,
		LearningRate: e.cfg.RoundLearningRate(e.round),
		TestAccuracy: math.NaN(),
	}
	if obs != nil {
		pc.lap(PhaseSelect)
	}

	rec, updates, claims, err := train(rec)
	need := k
	if minReplies > 0 {
		need = minReplies
	}
	if len(updates) < need {
		if err == nil {
			err = ErrAggregate
		}
		return RoundRecord{}, fmt.Errorf("round %d: %d of %d replies (need %d): %w",
			rec.Round, len(updates), k, need, err)
	}
	if obs != nil {
		pc.lap(PhaseTrain)
	}

	// Aggregate into the scratch model; the engine's state is untouched
	// until the commit below.
	if err := mean(e.aggScratch, updates); err != nil {
		return RoundRecord{}, fmt.Errorf("round %d: %w", rec.Round, err)
	}
	if obs != nil {
		pc.lap(PhaseAggregate)
	}

	if len(updates) < k {
		rec.Selected = make([]int, len(updates))
		for i, u := range updates {
			rec.Selected[i] = u.Client
		}
	}
	rec.LocalLosses = make([]float64, len(updates))
	for i, u := range updates {
		rec.LocalLosses[i] = u.Loss
	}
	if rec.TrainLoss, err = trainLoss(e.aggScratch, updates); err != nil {
		return RoundRecord{}, fmt.Errorf("round %d train loss: %w", rec.Round, err)
	}
	if e.test != nil {
		// The evaluator reuses its chunk scratch round over round.
		// Bit-identical for any worker count: hit counts are integers,
		// reduced in chunk order.
		if e.testEval == nil {
			e.testEval = ml.NewEvaluator(e.evalParallel)
		}
		if rec.TestAccuracy, err = e.testEval.Accuracy(e.aggScratch, e.test); err != nil {
			return RoundRecord{}, fmt.Errorf("round %d accuracy: %w", rec.Round, err)
		}
	}
	if obs != nil {
		pc.lap(PhaseEvaluate)
	}

	e.mu.Lock()
	err = e.global.CopyFrom(e.aggScratch)
	if err == nil {
		e.round++
		e.history = append(e.history, rec)
	}
	e.mu.Unlock()
	if err != nil {
		return RoundRecord{}, fmt.Errorf("round %d commit: %w", rec.Round, err)
	}

	if obs != nil {
		st := pc.finish(rec.Round)
		st.Workers, st.WorkerClaims = k, claims
		if claims != nil {
			st.Workers = len(claims)
		}
		st.Dropped = len(rec.Dropped)
		st.Rejoins = rec.Rejoins
		st.Retries = rec.Retries
		st.DownlinkBytes = rec.DownlinkBytes
		st.UplinkBytes = rec.UplinkBytes
		st.DownlinkAttemptBytes = rec.DownlinkAttemptBytes
		st.DownlinkDeliveredBytes = rec.DownlinkDeliveredBytes
		st.UplinkAttemptBytes = rec.UplinkAttemptBytes
		st.UplinkDeliveredBytes = rec.UplinkDeliveredBytes
		obs.ObserveRound(st)
	}
	return rec, nil
}
