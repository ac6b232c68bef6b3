package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/flnet"
	"eefei/internal/ml"
	"eefei/internal/sim"
)

// dataSeed fixes the synthetic dataset (class prototypes and sample noise)
// the way a real deployment trains on one fixed dataset. Prototypes drawn
// from the workload seed would change the task itself: at the inproc-paper
// shape ε is then reached anywhere from round 4 to round 10, so a
// comparison across seeds would measure the task, not the system. The
// training seeds drive everything else: partitioning, selection, the
// edges' seeds and the datagram loss injectors.
const dataSeed = 1

// spec is one workload: data shape, federated hyper-parameters, transport
// and the accuracy target ε.
type spec struct {
	name string
	// transport is "inproc" (sim.System.Run), "tcp" or "dgram"
	// (flnet.Coordinator.Run with in-process edges over loopback).
	transport   string
	servers     int
	perServer   int
	testSamples int
	side, blobs int
	noise       float64
	k, e        int
	lr          float64
	eps         float64
	// rounds is the round cap in process (the run stops at ε) and the
	// fixed round count on the network.
	rounds int
	// downBits quantizes the downlink residual (0 = lossless).
	downBits ml.QuantBits
	// successProb is the datagram per-attempt delivery probability p.
	successProb float64
	// seeds is how many training seeds an untraced run cycles through.
	seeds int
}

func (sp spec) networked() bool { return sp.transport != "inproc" }

var workloads = []spec{
	{
		name: "inproc-paper", transport: "inproc",
		servers: 20, perServer: 3000, testSamples: 10000, side: 28, blobs: 4, noise: 0.9,
		k: 10, e: 2, lr: 0.01, eps: 0.92, rounds: 60, seeds: 4,
	},
	// 500 rounds keep the per-round History copy in the measured loop
	// without letting its O(T²) memory traffic amplify host noise, which
	// at 2000 rounds spread rounds_per_s by ±20% between same-seed runs.
	{
		name: "tcp-q8", transport: "tcp",
		servers: 2, perServer: 100, testSamples: 200, side: 8, blobs: 3, noise: 0.2,
		k: 2, e: 1, lr: 0.5, eps: 0.9, rounds: 500, downBits: ml.Quant8, seeds: 8,
	},
	{
		name: "dgram-loss10", transport: "dgram",
		servers: 2, perServer: 100, testSamples: 200, side: 28, blobs: 4, noise: 0.3,
		k: 2, e: 1, lr: 0.5, eps: 0.9, rounds: 200, successProb: 0.9, seeds: 8,
	},
}

func lookup(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// trainSeed is the seed of the i-th training run of a workload seed.
func trainSeed(seed uint64, i int) uint64 { return subSeed(seed, streamTrain+uint64(i)) }

// subSeed derives the independent seed of one consumer of the workload
// seed (SplitMix64 finalizer).
func subSeed(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	streamPartition = 1 + iota
	streamFL
	streamSim
	streamListener
	streamEdge   // + edge index
	streamDialer = streamEdge + 64
	streamTrain  = streamDialer + 64 // + training seed index
)

// rep is one closed-loop training run: set up, then rounds until the stop
// condition fires.
type rep struct {
	trainSeed int // index of the training seed
	setup     time.Duration
	// history is dropped once summarize has checked it and kept its totals.
	history []fl.RoundRecord
	out     outcome
	// Round-record totals: bytes, clients dispatched and dropped.
	down, up, dispatched, dropped int64
	bad                           []string // failed output checks
	// roundTimes are stop-to-stop intervals: everything one loop iteration
	// costs, the engine's own bookkeeping included.
	roundTimes []time.Duration
	loop       time.Duration
	// hit is the 1-based round that first reached ε (0 = never), toTarget
	// the wall-clock from the first round's start to that round's end.
	hit      int
	toTarget time.Duration
	joules   float64 // to target
	ledgerJ  float64 // whole run: the sim ledger, or the calibrator's
	err      error
	// Traced runs only.
	mallocs, allocBytes uint64
	dgram               fldgram.Stats
	coordTx, coordRx    int64
	workers             []int
	// Inputs kept for the layer probes of a traced run.
	shards []*dataset.Dataset
	test   *dataset.Dataset
	global *ml.Model
}

// roundsAttempted counts committed rounds plus the one that failed.
func (r *rep) roundsAttempted() int {
	if r.err != nil {
		return r.out.rounds + 1
	}
	return r.out.rounds
}

// outcome is what a rep must reproduce exactly for the same training seed.
type outcome struct {
	rounds, hit   int
	acc           float64
	wire, attempt int64
	joules        float64
}

// summarize runs the output checks on a finished rep and keeps only the
// totals the metrics need, so a run does not hold every rep's history.
func (r *rep) summarize(sp spec, traced bool) {
	h := r.history
	r.out = outcome{rounds: len(h), hit: r.hit, joules: r.joules}
	if len(h) > 0 {
		r.out.acc = h[len(h)-1].TestAccuracy
	}
	for _, rec := range h {
		r.down += rec.DownlinkBytes
		r.up += rec.UplinkBytes
		r.out.attempt += rec.DownlinkAttemptBytes + rec.UplinkAttemptBytes
		r.dispatched += int64(len(rec.Selected))
		r.dropped += int64(len(rec.Dropped))
	}
	r.out.wire = r.down + r.up
	r.bad = checkRep(sp, r, traced)
	r.history = nil
}

// loopClock is the stop condition every workload runs under. It records
// the stop-to-stop round times and the first round reaching ε.
type loopClock struct {
	sp          spec
	tr          *tracer
	times       []time.Duration
	first, prev time.Time
	hit         int
	toTarget    time.Duration
	// onStart and onEnd run at the first and the final stop call (traced
	// runs: memory and packet counter snapshots).
	onStart, onEnd func()
}

func (c *loopClock) stop(h []fl.RoundRecord) bool {
	n := len(h)
	if n == 0 && c.onStart != nil {
		c.onStart()
	}
	now := time.Now()
	if n == 0 {
		c.first = now
	} else {
		c.times = append(c.times, now.Sub(c.prev))
		if c.hit == 0 && h[n-1].TestAccuracy >= c.sp.eps {
			c.hit = n
			c.toTarget = now.Sub(c.first)
		}
	}
	c.prev = now
	c.tr.endRound(now)
	// In process the run stops at ε; on the network it runs a fixed count.
	if n >= c.sp.rounds || (!c.sp.networked() && c.hit > 0) {
		if c.onEnd != nil {
			c.onEnd()
		}
		return true
	}
	c.tr.beginRound(n, now)
	return false
}

// synthesize builds the workload's train and test sets and shards.
func synthesize(sp spec, seed uint64, tr *tracer, setupSpan int32) ([]*dataset.Dataset, *dataset.Dataset, error) {
	cfg := dataset.SyntheticConfig{
		Samples: sp.servers * sp.perServer, Classes: 10, Side: sp.side,
		Noise: sp.noise, BlobsPerClass: sp.blobs, Seed: dataSeed,
	}
	testCfg := cfg
	testCfg.Samples = sp.testSamples
	t0 := time.Now()
	train, test, err := dataset.SynthesizePairParallel(cfg, testCfg, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize: %w", err)
	}
	t1 := time.Now()
	shards, err := dataset.EqualShards(train, sp.servers, subSeed(seed, streamPartition))
	if err != nil {
		return nil, nil, fmt.Errorf("partition: %w", err)
	}
	tr.add("dataset.synthesize", setupSpan, tr.at(t0), tr.at(t1))
	tr.add("dataset.partition", setupSpan, tr.at(t1), tr.now())
	return shards, test, nil
}

func flConfig(sp spec, seed uint64) fl.Config {
	cfg := fl.DefaultConfig()
	cfg.ClientsPerRound, cfg.LocalEpochs, cfg.LearningRate = sp.k, sp.e, sp.lr
	cfg.Seed = subSeed(seed, streamFL)
	return cfg
}

// runRep sets the workload up and trains once. With a tracer it also
// attaches the passive observers and conn wrappers of the traced run.
func runRep(sp spec, seed uint64, tr *tracer) rep {
	if sp.networked() {
		return runNetRep(sp, seed, tr)
	}
	return runSimRep(sp, seed, tr)
}

func runSimRep(sp spec, seed uint64, tr *tracer) (r rep) {
	t0 := time.Now()
	setupSpan := tr.begin("setup", -1)
	shards, test, err := synthesize(sp, seed, tr, setupSpan)
	if err != nil {
		r.err = err
		return r
	}
	tb := time.Now()
	cfg := sim.DefaultConfig()
	cfg.Servers = sp.servers
	cfg.FL = flConfig(sp, seed)
	cfg.Seed = subSeed(seed, streamSim)
	obs := &phaseSpans{tr: tr}
	if tr != nil {
		cfg.Observer = obs
	}
	sys, err := sim.New(cfg, shards, test)
	if err != nil {
		r.err = fmt.Errorf("sim: %w", err)
		return r
	}
	tr.add("sim.build", setupSpan, tr.at(tb), tr.now())
	tr.end(setupSpan)
	r.setup = time.Since(t0)

	clock := &loopClock{sp: sp, tr: tr, times: make([]time.Duration, 0, sp.rounds)}
	var m0, m1 runtime.MemStats
	if tr != nil {
		clock.onStart = func() { runtime.ReadMemStats(&m0) }
		clock.onEnd = func() { runtime.ReadMemStats(&m1) }
	}
	res, err := sys.Run(clock.stop)
	r.finish(clock, err)
	if err != nil {
		return r
	}
	r.history = res.History
	r.joules = res.TotalJoules()
	r.ledgerJ = res.Ledger.Total()
	if tr != nil {
		r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		r.workers = obs.workers
		r.shards, r.test, r.global = shards, test, sys.Engine().Global().Clone()
	}
	return r
}

func (r *rep) finish(c *loopClock, err error) {
	r.roundTimes, r.hit, r.toTarget = c.times, c.hit, c.toTarget
	if !c.first.IsZero() {
		r.loop = c.prev.Sub(c.first)
	}
	r.err = err
}

// netJoules prices rounds [0, upto) the way the paper's device model does,
// with the radio phases priced from measured bytes: per selected edge the
// waiting and training energy of energy.DefaultPiDeviceModel, plus the
// energy.DefaultWiFiRadioModel cost of the round's downlink and uplink
// bytes — the attempted bytes on a datagram link, retransmissions included.
func netJoules(h []fl.RoundRecord, upto, epochs, samples int) float64 {
	dm, rm := energy.DefaultPiDeviceModel(), energy.DefaultWiFiRadioModel()
	var j float64
	for _, rec := range h[:upto] {
		j += float64(len(rec.Selected)) * (dm.WaitingEnergy() + dm.TrainEnergy(epochs, samples))
		down, up := rec.DownlinkBytes, rec.UplinkBytes
		if rec.DownlinkAttemptBytes > 0 {
			down = rec.DownlinkAttemptBytes
		}
		if rec.UplinkAttemptBytes > 0 {
			up = rec.UplinkAttemptBytes
		}
		j += rm.DownloadEnergy(down) + rm.UploadEnergy(up)
	}
	return j
}

func runNetRep(sp spec, seed uint64, tr *tracer) (r rep) {
	t0 := time.Now()
	setupSpan := tr.begin("setup", -1)
	shards, test, err := synthesize(sp, seed, tr, setupSpan)
	if err != nil {
		r.err = err
		return r
	}
	joinSpan := tr.begin("flnet.join", setupSpan)
	var ln net.Listener
	dial := func(int) (func(string, time.Duration) (net.Conn, error), error) { return nil, nil }
	if sp.transport == "dgram" {
		dl, err := fldgram.Listen("127.0.0.1:0", fldgram.Config{
			Seed: subSeed(seed, streamListener), SuccessProb: sp.successProb,
		})
		if err != nil {
			r.err = fmt.Errorf("listen: %w", err)
			return r
		}
		ln = dl
		dial = func(i int) (func(string, time.Duration) (net.Conn, error), error) {
			return fldgram.Dialer(fldgram.Config{
				Seed: subSeed(seed, streamDialer+uint64(i)), SuccessProb: sp.successProb,
			})
		}
	} else if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.err = fmt.Errorf("listen: %w", err)
		return r
	}
	conns := &connSet{}
	if tr != nil {
		ln = tracedListener{Listener: ln, tr: tr, conns: conns}
	}
	ccfg := flnet.CoordinatorConfig{
		FL:      flConfig(sp, seed),
		Classes: 10, Features: sp.side * sp.side,
		RoundTimeout: 30 * time.Second, JoinTimeout: 30 * time.Second,
		DownloadQuantBits: sp.downBits,
	}
	coord, err := flnet.NewCoordinator(ccfg, ln, test)
	if err != nil {
		ln.Close()
		r.err = fmt.Errorf("coordinator: %w", err)
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	edgeErrs := make([]error, sp.servers)
	var wg sync.WaitGroup
	// Shutting the coordinator down and waiting for every edge is the one
	// exit path, so no goroutine outlives the rep.
	defer func() {
		coord.Shutdown()
		wg.Wait()
		if r.err == nil {
			r.err = errors.Join(edgeErrs...)
		}
	}()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		r.err = fmt.Errorf("start accept loop: %w", err)
		return r
	}
	// Edges join one at a time so roster slots, and with them selection,
	// are the same on every run.
	for i := 0; i < sp.servers; i++ {
		d, err := dial(i)
		if err != nil {
			r.err = fmt.Errorf("dialer %d: %w", i, err)
			return r
		}
		if tr != nil {
			d = tracedDial(d, tr, conns)
		}
		ecfg := flnet.EdgeConfig{
			Addr: coord.Addr().String(), Shard: shards[i],
			Seed: subSeed(seed, streamEdge+uint64(i)), Dial: d,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := flnet.RunEdgeServer(ctx, ecfg); err != nil {
				edgeErrs[i] = fmt.Errorf("edge %d: %w", i, err)
			}
		}(i)
		if err := coord.AwaitRoster(ctx, i+1, 30*time.Second); err != nil {
			r.err = fmt.Errorf("edge %d join: %w", i, err)
			return r
		}
	}
	tr.end(joinSpan)
	tr.end(setupSpan)
	r.setup = time.Since(t0)

	clock := &loopClock{sp: sp, tr: tr, times: make([]time.Duration, 0, sp.rounds)}
	var m0, m1 runtime.MemStats
	var d0, d1 fldgram.Stats
	obs := &phaseSpans{tr: tr}
	var cal *energy.Calibrator
	if tr != nil {
		clock.onStart = func() { runtime.ReadMemStats(&m0); d0 = conns.dgramStats() }
		clock.onEnd = func() { runtime.ReadMemStats(&m1); d1 = conns.dgramStats() }
		cal, err = energy.NewCalibrator(energy.DefaultPiPowerModel(), sp.e, sp.perServer,
			energy.WithRadioModel(energy.DefaultWiFiRadioModel()))
		if err != nil {
			r.err = fmt.Errorf("calibrator: %w", err)
			return r
		}
		coord.SetRoundObserver(fl.Tee(obs, timedObserver{tr: tr, inner: cal}))
	}
	h, err := coord.Run(ctx, clock.stop)
	r.finish(clock, err)
	r.history = h
	if err != nil {
		return r
	}
	if r.hit > 0 {
		r.joules = netJoules(h, r.hit, sp.e, sp.perServer)
	}
	if tr != nil {
		r.ledgerJ = cal.Ledger().Total()
		r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		r.dgram = fldgram.Stats{
			TxAttempts:       d1.TxAttempts - d0.TxAttempts,
			TxDelivered:      d1.TxDelivered - d0.TxDelivered,
			RxDupPackets:     d1.RxDupPackets - d0.RxDupPackets,
			RxInvalidPackets: d1.RxInvalidPackets - d0.RxInvalidPackets,
		}
		r.coordTx, r.coordRx = conns.coordBytes()
		r.workers = obs.workers
		r.shards, r.test, r.global = shards, test, coord.Global().Clone()
	}
	return r
}

// phaseSpans turns each round's fl.RoundStats into spans. The observer runs
// at commit, so the round began Total ago and its phases ran back to back
// from there; the remainder up to Total is the commit.
type phaseSpans struct {
	tr      *tracer
	workers []int
}

func (o *phaseSpans) ObserveRound(s fl.RoundStats) {
	end := o.tr.now()
	start := end - int64(s.Total)
	id := o.tr.add("fl.round", o.tr.parent(), start, end)
	t := start
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{{"fl.select", s.Select}, {"fl.train", s.Train}, {"fl.aggregate", s.Aggregate}, {"fl.evaluate", s.Evaluate}} {
		o.tr.add(ph.name, id, t, t+int64(ph.d))
		t += int64(ph.d)
	}
	o.tr.add("fl.commit", id, t, end)
	o.workers = append(o.workers, s.Workers)
}

// timedObserver records a span around another observer.
type timedObserver struct {
	tr    *tracer
	inner fl.RoundObserver
}

func (o timedObserver) ObserveRound(s fl.RoundStats) {
	id := o.tr.begin("energy.observe", o.tr.parent())
	o.inner.ObserveRound(s)
	o.tr.end(id)
}
