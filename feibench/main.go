// Command feibench is the end-to-end benchmark of the FEI system: what it
// costs to train to accuracy ε — wall-clock, rounds, joules, bytes — in
// process (sim.System.Run), over loopback TCP and over the lossy datagram
// transport (flnet.Coordinator.Run), plus a traced run that breaks a round
// down by layer.
//
//	bash feibench/run.sh --workload inproc-paper --seed 1 --seconds 30 --trace 0
//
// Every run is a closed loop (a round starts once the previous one has
// committed) driven from this one process, with two edge connections on
// the networked workloads. The workload seed (default 1) derives a fixed
// set of training seeds, which drive partitioning, selection, the edges'
// seeds and the datagram loss injectors; the same seed gives the same
// rounds, bytes, joules and accuracy. The last line of standard output is
// the JSON result; the exit code is non-zero when an output check fails.
//
// With --trace 0 the run repeats set-up and training for --seconds, and at
// least once per training seed, and reports the end-to-end metrics: timings
// as medians over reps, rounds, joules and accuracy as means over the
// training seeds. With --trace 1 it spends half the time untraced and half
// traced — conn wrappers, round observers and span recording switched on —
// then probes the mat and ml kernels on the workload's shapes, and reports
// the per-layer metrics; the spans go to --trace-dir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"eefei/internal/energy"
	"eefei/internal/ml"
)

// traceCapacity bounds the span buffer; a traced pass stops repeating
// once the next rep might not fit.
const traceCapacity = 1 << 17

// metricDef names a metric with its unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"time_to_target_s", "s", "lower"},
	{"rounds_to_target", "count", "lower"},
	{"joules_to_target", "J", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"final_accuracy", "fraction", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, reported on every workload
// (0 where a layer takes no part).
var perLayer = []metricDef{
	{"dataset.synthesize_s", "s", "lower"},
	{"dataset.partition_s", "s", "lower"},
	{"mat.multt_gflops", "GFLOP/s", "higher"},
	{"mat.addmulta_gflops", "GFLOP/s", "higher"},
	{"ml.sgd_epoch_ms", "ms", "lower"},
	{"ml.eval_ms", "ms", "lower"},
	{"ml.quantize_us", "us", "lower"},
	{"fl.select_ms", "ms", "lower"},
	{"fl.train_ms", "ms", "lower"},
	{"fl.aggregate_ms", "ms", "lower"},
	{"fl.evaluate_ms", "ms", "lower"},
	{"fl.commit_ms", "ms", "lower"},
	{"fl.pool_busy_share", "fraction", "higher"},
	{"sim.loop_ms", "ms", "lower"},
	{"flnet.loop_ms", "ms", "lower"},
	{"flnet.join_ms", "ms", "lower"},
	{"flnet.frames_per_round", "count", "lower"},
	{"flnet.down_bytes_per_round", "B", "lower"},
	{"flnet.up_bytes_per_round", "B", "lower"},
	{"flnet.coord_write_us", "us", "lower"},
	{"flnet.coord_read_wait_ms", "ms", "lower"},
	{"flnet.edge_compute_ms", "ms", "lower"},
	{"flnet.edge_idle_share", "fraction", "lower"},
	{"proc.allocs_per_round", "count", "lower"},
	{"proc.alloc_bytes_per_round", "B", "lower"},
	{"fldgram.packets_per_frame", "count", "lower"},
	{"fldgram.attempts_per_delivery", "count", "lower"},
	{"fldgram.retransmits_per_round", "count", "lower"},
	{"fldgram.rx_dup_invalid_per_round", "count", "lower"},
	{"fldgram.write_ms_per_frame", "ms", "lower"},
	{"energy.ledger_j_per_round", "J", "lower"},
	{"energy.observe_us", "us", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("feibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: inproc-paper, tcp-q8 or dgram-loss10")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement time in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory for the span trace of a traced run (empty = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "feibench: need --workload inproc-paper|tcp-q8|dgram-loss10, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res := bench(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *traceDir)
	h, _ := json.Marshal(res.host)
	fmt.Fprintf(stdout, "host %s\n", h)
	fmt.Fprintf(stdout, "workload %s seed %d reps %d\n", sp.name, *seed, res.attempted)
	for _, r := range res.reps {
		fmt.Fprintf(stdout, "rep %-8s train_seed %d setup_s %.4f rounds %d loop_s %.4f rounds_per_s %.2f time_to_target_s %.5f\n",
			r.pass, r.trainSeed, r.setup.Seconds(), r.rounds, r.loop.Seconds(), ratio(float64(r.rounds), r.loop.Seconds()), r.toTarget.Seconds())
	}
	for _, m := range append(res.metrics, res.extra...) {
		fmt.Fprintf(stdout, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range res.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", n)
	}
	out, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintf(stderr, "feibench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if res.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	host              hostInfo
	attempted, failed int
	metrics           []metric // the gated set: end-to-end or per-layer
	extra             []metric // printed only
	failures          []string
	reps              []repLine
}

// repLine is the per-rep timing summary printed before the metrics.
type repLine struct {
	pass      string
	trainSeed int
	setup     time.Duration
	rounds    int
	loop      time.Duration
	toTarget  time.Duration
}

func (r result) json() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms}
}

// runPass repeats set-up and training until budget is spent, starting a
// rep only when the previous one's duration still fits, and at least
// minReps times. Rep i trains under training seed i mod sp.seeds. Only the
// last rep keeps its inputs, for the probes. A traced pass also stops when
// the next rep might overflow the span buffer.
func runPass(sp spec, seed uint64, budget time.Duration, minReps int, tr *tracer) []rep {
	var reps []rep
	start := time.Now()
	var last time.Duration
	lastSpans := 0
	for len(reps) < minReps || time.Since(start)+last <= budget {
		if tr != nil && len(reps) > 0 && tr.remaining() < lastSpans {
			break
		}
		if len(reps) > 0 {
			p := &reps[len(reps)-1]
			p.shards, p.test, p.global = nil, nil, nil
		}
		runtime.GC()
		t0, s0 := time.Now(), 0
		if tr != nil {
			s0 = len(tr.recorded())
		}
		r := runRep(sp, trainSeed(seed, len(reps)%sp.seeds), tr)
		r.trainSeed = len(reps) % sp.seeds
		r.summarize(sp, tr != nil)
		last = time.Since(t0)
		if tr != nil {
			lastSpans = len(tr.recorded()) - s0
		}
		reps = append(reps, r)
		if r.err != nil {
			break
		}
	}
	return reps
}

// checkRep returns the output checks a summarized rep fails.
func checkRep(sp spec, r *rep, traced bool) []string {
	if r.err != nil {
		return []string{r.err.Error()}
	}
	h := r.history
	if len(h) == 0 {
		return []string{"no rounds ran"}
	}
	var bad []string
	if acc := h[len(h)-1].TestAccuracy; r.hit == 0 || acc < sp.eps {
		bad = append(bad, fmt.Sprintf("final accuracy %.4f below ε=%.2f", acc, sp.eps))
	}
	if !sp.networked() {
		want := float64(r.hit*sp.k) * energy.DefaultPiDeviceModel().RoundEnergy(sp.e, sp.perServer)
		if math.Abs(r.joules-want) > 1e-9*want {
			bad = append(bad, fmt.Sprintf("joules to target %.9g, want rounds×K×RoundEnergy = %.9g", r.joules, want))
		}
		return bad
	}
	if r.dropped > 0 {
		bad = append(bad, fmt.Sprintf("%d client drops", r.dropped))
	}
	if sp.downBits != 0 {
		full := int64(sp.k * ml.NewModel(10, sp.side*sp.side, ml.Softmax).EncodedSize())
		if h[0].DownlinkBytes < full {
			bad = append(bad, fmt.Sprintf("round 0 downlink %d B is below %d B of full models", h[0].DownlinkBytes, full))
		}
		for _, rec := range h[1:] {
			if rec.DownlinkBytes >= h[0].DownlinkBytes {
				bad = append(bad, fmt.Sprintf("round %d downlink %d B is not below the full-model %d B: residual path unused",
					rec.Round, rec.DownlinkBytes, h[0].DownlinkBytes))
				break
			}
		}
	}
	if sp.transport == "dgram" {
		var att, del int64
		for _, rec := range h {
			att += rec.DownlinkAttemptBytes + rec.UplinkAttemptBytes
			del += rec.DownlinkDeliveredBytes + rec.UplinkDeliveredBytes
		}
		inv := 1 / sp.successProb
		if del == 0 || math.Abs(float64(att)/float64(del)-inv)/inv > 0.05 {
			bad = append(bad, fmt.Sprintf("attempted/delivered = %d/%d, want within 5%% of 1/p = %.4f", att, del, inv))
		}
	}
	if traced && (r.coordTx != r.down || r.coordRx != r.up) {
		bad = append(bad, fmt.Sprintf("conn wrappers saw %d B down / %d B up, round records %d / %d",
			r.coordTx, r.coordRx, r.down, r.up))
	}
	return bad
}

// bench runs a workload and assembles its result.
func bench(sp spec, seed uint64, budget time.Duration, traced bool, traceDir string) result {
	res := result{host: host()}
	passBudget := budget
	if traced {
		passBudget = budget / 2
	}
	// An untraced run trains under every training seed, so its outcomes
	// average over partitions and selections; a traced run compares each
	// traced rep with the untraced rep of the same training seed.
	minReps := sp.seeds
	if traced {
		minReps = 1
	}
	plain := runPass(sp, seed, passBudget, minReps, nil)
	ref := map[int]outcome{}
	judge := func(reps []rep, pass string) {
		for i, r := range reps {
			res.reps = append(res.reps, repLine{pass, r.trainSeed, r.setup, r.out.rounds, r.loop, r.toTarget})
			res.attempted++
			bad := r.bad
			if r.err == nil {
				o := r.out
				if want, seen := ref[r.trainSeed]; !seen {
					ref[r.trainSeed] = o
				} else if o != want {
					bad = append(bad, fmt.Sprintf("outcome %+v differs from the earlier rep's %+v under training seed %d", o, want, r.trainSeed))
				}
			}
			if len(bad) > 0 {
				res.failed++
				for _, b := range bad {
					res.failures = append(res.failures, fmt.Sprintf("%s rep %d: %s", pass, i, b))
				}
			}
		}
	}
	judge(plain, "untraced")
	if !traced {
		res.metrics, res.extra = endToEndMetrics(sp, plain)
		return res
	}

	tr := newTracer(traceCapacity)
	runSpan := tr.begin("run", -1)
	reps := runPass(sp, seed, passBudget, 1, tr)
	judge(reps, "traced")
	last := reps[len(reps)-1]
	var probes map[string]float64
	if last.err == nil {
		res.attempted++
		var err error
		if probes, err = probeLayers(tr, sp, last); err != nil {
			res.failed++
			res.failures = append(res.failures, "probes: "+err.Error())
		}
	}
	tr.end(runSpan)
	spans := tr.recorded()
	res.metrics = layerMetrics(sp, reps, spans, probes, roundsPerSec(plain))
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
		if err := writeTrace(path, res.host, spans, tr.dropped.Load()); err != nil {
			fmt.Fprintf(os.Stderr, "feibench: %v\n", err)
		}
	}
	return res
}

// ok returns the reps that completed without error.
func ok(reps []rep) []rep {
	var out []rep
	for _, r := range reps {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func roundsPerSec(reps []rep) float64 {
	var xs []float64
	for _, r := range ok(reps) {
		xs = append(xs, ratio(float64(r.out.rounds), r.loop.Seconds()))
	}
	return median(xs)
}

func endToEndMetrics(sp spec, reps []rep) (gated, extra []metric) {
	good := ok(reps)
	var setups, targets []time.Duration
	var times []float64
	var rounds, attempted, failedRounds int
	var wire, attempt, dispatched, dropped int64
	for _, r := range reps {
		attempted += r.roundsAttempted()
		if r.err != nil {
			failedRounds++
		}
	}
	for _, r := range good {
		setups = append(setups, r.setup)
		targets = append(targets, r.toTarget)
		for _, d := range r.roundTimes {
			times = append(times, float64(d)/float64(time.Millisecond))
		}
		rounds += r.out.rounds
		dispatched += r.dispatched
		dropped += r.dropped
		wire += r.out.wire
		attempt += r.out.attempt
	}
	sort.Float64s(times)
	// Rounds, joules and accuracy are the means over the training seeds:
	// each is exact for its seed, and the mean is steady across workload
	// seeds where one partition's round count is not.
	var hits, joules, accs []float64
	seen := map[int]bool{}
	for _, r := range good {
		if !seen[r.trainSeed] {
			seen[r.trainSeed] = true
			o := r.out
			hits = append(hits, float64(o.hit))
			joules = append(joules, o.joules)
			accs = append(accs, o.acc)
		}
	}
	vals := map[string]float64{
		"setup_s":          durMedian(setups, time.Second),
		"time_to_target_s": durMedian(targets, time.Second),
		"rounds_to_target": mean(hits),
		"joules_to_target": mean(joules),
		"rounds_per_s":     roundsPerSec(reps),
		"final_accuracy":   mean(accs),
		"peak_rss_mb":      peakRSSMB(),
	}
	if len(times) > 0 {
		vals["round_p50_ms"], _ = nearestRank(times, 50)
	}
	for _, d := range endToEnd {
		gated = append(gated, metric{d.name, vals[d.name], d.unit})
	}
	extra = append(extra, metric{"round_samples", float64(len(times)), "count"})
	if p90, ok := tailPercentile(times, 90); ok {
		extra = append(extra, metric{"round_p90_ms", p90, "ms"})
	}
	if sp.networked() {
		extra = append(extra, metric{"wire_bytes_per_round", ratio(float64(wire), float64(rounds)), "B"})
		extra = append(extra, metric{"client_drop_ratio", ratio(float64(dropped), float64(dispatched)), "fraction"})
	}
	if sp.transport == "dgram" {
		extra = append(extra, metric{"attempt_bytes_per_round", ratio(float64(attempt), float64(rounds)), "B"})
	}
	extra = append(extra, metric{"round_fail_ratio", ratio(float64(failedRounds), float64(attempted)), "fraction"})
	return gated, extra
}

// layerMetrics derives the per-layer metrics of a traced pass from its
// spans, its reps' counters and the kernel probes.
func layerMetrics(sp spec, reps []rep, spans []span, probes map[string]float64, plainRPS float64) []metric {
	vals := map[string]float64{}
	for k, v := range probes {
		vals[k] = v
	}
	good := ok(reps)
	var rounds, loop float64
	var down, up, mallocs, allocBytes, ledger float64
	var dg struct{ attempts, delivered, dupInvalid float64 }
	var workers []float64
	for _, r := range good {
		rounds += float64(r.out.rounds)
		loop += r.loop.Seconds()
		down += float64(r.down)
		up += float64(r.up)
		mallocs += float64(r.mallocs)
		allocBytes += float64(r.allocBytes)
		ledger += r.ledgerJ
		dg.attempts += float64(r.dgram.TxAttempts)
		dg.delivered += float64(r.dgram.TxDelivered)
		dg.dupInvalid += float64(r.dgram.RxDupPackets + r.dgram.RxInvalidPackets)
		for _, w := range r.workers {
			workers = append(workers, float64(w))
		}
	}

	self := selfTimes(spans)
	byName := map[string][]float64{} // durations in ns
	var roundSelf []float64
	// Round-loop work only: handshakes and the shutdown frame fall outside.
	var compute, readNS, writeNS, frames, coordWriteNS, coordWrites float64
	for i, s := range spans {
		d := float64(s.End - s.Start)
		byName[s.Name] = append(byName[s.Name], d)
		if s.Round < 0 {
			continue
		}
		switch s.Name {
		case "round":
			roundSelf = append(roundSelf, float64(self[i]))
		case "flnet.edge.compute":
			compute += d
		case "flnet.conn.read":
			readNS += d
		case "flnet.conn.write":
			coordWriteNS += d
			coordWrites++
			frames++
			writeNS += d
		case "flnet.edge.write":
			frames++
			writeNS += d
		}
	}
	const msNS, usNS, sNS = 1e6, 1e3, 1e9
	med := func(name string, unit float64) float64 { return median(byName[name]) / unit }

	vals["dataset.synthesize_s"] = med("dataset.synthesize", sNS)
	vals["dataset.partition_s"] = med("dataset.partition", sNS)
	for _, p := range []string{"select", "train", "aggregate", "evaluate", "commit"} {
		vals["fl."+p+"_ms"] = med("fl."+p, msNS)
	}
	vals["fl.pool_busy_share"] = ratio(float64(sp.k*sp.e)*vals["ml.sgd_epoch_ms"], median(workers)*vals["fl.train_ms"])
	loopMS := median(roundSelf) / msNS
	if sp.networked() {
		vals["flnet.loop_ms"] = loopMS
		vals["flnet.join_ms"] = med("flnet.join", msNS)
		vals["flnet.frames_per_round"] = ratio(frames, rounds)
		vals["flnet.down_bytes_per_round"] = ratio(down, rounds)
		vals["flnet.up_bytes_per_round"] = ratio(up, rounds)
		vals["flnet.coord_write_us"] = ratio(coordWriteNS, coordWrites) / usNS
		vals["flnet.coord_read_wait_ms"] = ratio(readNS, rounds) / msNS
		vals["flnet.edge_compute_ms"] = med("flnet.edge.compute", msNS)
		vals["flnet.edge_idle_share"] = 1 - ratio(compute/sNS, float64(sp.servers)*loop)
	} else {
		vals["sim.loop_ms"] = loopMS
	}
	vals["proc.allocs_per_round"] = ratio(mallocs, rounds)
	vals["proc.alloc_bytes_per_round"] = ratio(allocBytes, rounds)
	if sp.transport == "dgram" {
		vals["fldgram.packets_per_frame"] = ratio(dg.delivered, frames)
		vals["fldgram.attempts_per_delivery"] = ratio(dg.attempts, dg.delivered)
		vals["fldgram.retransmits_per_round"] = ratio(dg.attempts-dg.delivered, rounds)
		vals["fldgram.rx_dup_invalid_per_round"] = ratio(dg.dupInvalid, rounds)
		vals["fldgram.write_ms_per_frame"] = ratio(writeNS, frames) / msNS
	}
	vals["energy.ledger_j_per_round"] = ratio(ledger, rounds)
	vals["energy.observe_us"] = med("energy.observe", usNS)
	vals["trace_overhead_pct"] = 100 * ratio(plainRPS-roundsPerSec(reps), plainRPS)

	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		out = append(out, metric{d.name, vals[d.name], d.unit})
	}
	return out
}

func mean(xs []float64) float64 { return ratio(sumOf(xs), float64(len(xs))) }

func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
