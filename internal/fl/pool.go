package fl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eefei/internal/dataset"
	"eefei/internal/ml"
)

// trainJob is one local training: client's shard trained for E epochs into
// model, at step t of the learning-rate schedule (the round for Engine, the
// dispatch version for AsyncEngine). worker, loss and err are the outcome.
type trainJob struct {
	client int
	step   int
	model  *ml.Model
	worker int
	loss   float64
	err    error
}

// trainPool is the bounded local-training pool both in-process engines run
// on. Up to parallel workers each own one ml.SGD (and thereby its gradient,
// batched-forward, shuffle buffers and RNG object) and claim jobs off a
// shared atomic cursor. Which worker trains which job depends on goroutine
// scheduling, but harmlessly: the optimizer is reseeded from
// (seed, client, step) on every job, so every trajectory is identical for
// any pool size.
//
// The in-flight jobs live on the struct rather than in closures, so the
// sequential path — the one the async engine's 0-alloc Step pin exercises —
// allocates nothing after warm-up.
type trainPool struct {
	cfg      Config
	shards   []*dataset.Dataset
	ref      *ml.Model // FedProx anchor: the global model, read-only while the pool runs
	parallel int
	sgds     []*ml.SGD
	jobs     []trainJob
	claims   []int
}

// add queues one job for the next run.
func (p *trainPool) add(client, step int, model *ml.Model) {
	p.jobs = append(p.jobs, trainJob{client: client, step: step, model: model})
}

// run trains the queued jobs and returns claims[w], the number of jobs
// worker w trained successfully (the pool occupancy an observer sees; valid
// until the next run), and the first error in job order. The queue stays
// readable until reset.
func (p *trainPool) run() ([]int, error) {
	workers := p.parallel
	if workers > len(p.jobs) {
		workers = len(p.jobs)
	}
	if workers < 1 {
		workers = 1
	}
	for len(p.sgds) < workers {
		p.sgds = append(p.sgds, nil)
	}
	if workers == 1 {
		for i := range p.jobs {
			p.train(0, i)
		}
	} else {
		p.runParallel(workers)
	}
	// Claims are counted from the per-job worker tags after the pool, so
	// nothing observer-related is captured by the worker closure.
	if cap(p.claims) < workers {
		p.claims = make([]int, workers)
	}
	p.claims = p.claims[:workers]
	clear(p.claims)
	for _, j := range p.jobs {
		if j.err == nil {
			p.claims[j.worker]++
		}
	}
	for _, j := range p.jobs {
		if j.err != nil {
			return p.claims, fmt.Errorf("client %d: %w", j.client, j.err)
		}
	}
	return p.claims, nil
}

// runParallel fans the queued jobs out over the given worker count. Kept out
// of line so the goroutine closures heap-allocate only when workers spawn.
func (p *trainPool) runParallel(workers int) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(p.jobs) {
					return
				}
				p.train(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// reset empties the job queue.
func (p *trainPool) reset() { p.jobs = p.jobs[:0] }

// train is the one local trainer: worker w's optimizer, reseeded from
// (seed, client, step) so mini-batch order never depends on scheduling or
// pool size, runs E epochs over the job's shard at γ_step.
func (p *trainPool) train(w, i int) {
	j := &p.jobs[i]
	j.worker = w
	cfg := ml.SGDConfig{
		LearningRate: p.cfg.RoundLearningRate(j.step),
		BatchSize:    p.cfg.BatchSize,
		ProximalMu:   p.cfg.ProximalMu,
		Seed:         p.cfg.Seed ^ uint64(j.client)<<32 ^ uint64(j.step),
	}
	var err error
	if p.sgds[w] == nil {
		p.sgds[w], err = ml.NewSGD(cfg)
	} else {
		err = p.sgds[w].Reset(cfg)
	}
	if err != nil {
		j.err = err
		return
	}
	p.sgds[w].SetProximalRef(p.ref)
	j.loss, j.err = p.sgds[w].TrainFinal(j.model, p.shards[j.client], p.cfg.LocalEpochs)
}

// checkShards validates every shard and that all agree with shard 0 on
// dimensionality and class count; it returns that shape and the total
// sample count. Errors wrap kind.
func checkShards(shards []*dataset.Dataset, kind error) (dim, classes, total int, err error) {
	if len(shards) == 0 {
		return 0, 0, 0, fmt.Errorf("no shards: %w", kind)
	}
	dim, classes = shards[0].Dim(), shards[0].Classes
	for i, s := range shards {
		if err := s.Validate(); err != nil {
			return 0, 0, 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if s.Dim() != dim || s.Classes != classes {
			return 0, 0, 0, fmt.Errorf("shard %d shape %d/%d differs from shard 0 %d/%d: %w",
				i, s.Dim(), s.Classes, dim, classes, kind)
		}
		total += s.Len()
	}
	return dim, classes, total, nil
}
