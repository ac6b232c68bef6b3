package fl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPhaseString(t *testing.T) {
	tests := []struct {
		p    Phase
		want string
	}{
		{PhaseSelect, "select"},
		{PhaseTrain, "train"},
		{PhaseAggregate, "aggregate"},
		{PhaseEvaluate, "evaluate"},
		{Phase(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Phase(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

// TestObserverStats checks the contents of the per-round records: every
// phase timed, totals covering the phases, occupancy summing to K, and
// memstats deltas present when sampling is on.
func TestObserverStats(t *testing.T) {
	shards, test := quickShards(t, 10)
	var stats []RoundStats
	engine, err := NewEngine(quickConfig(), shards,
		WithTestSet(test),
		WithParallelism(4),
		WithRoundObserver(FuncObserver(func(s RoundStats) {
			// WorkerClaims is only valid during the call: copy it.
			s.WorkerClaims = append([]int(nil), s.WorkerClaims...)
			stats = append(stats, s)
		})),
	)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	engine.SetMemSampling(true)
	const rounds = 3
	if _, err := engine.Run(MaxRounds(rounds)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stats) != rounds {
		t.Fatalf("observed %d rounds, want %d", len(stats), rounds)
	}
	for i, s := range stats {
		if s.Round != i {
			t.Errorf("stats[%d].Round = %d", i, s.Round)
		}
		if s.Train <= 0 || s.Evaluate <= 0 {
			t.Errorf("round %d: train %v / evaluate %v not timed", i, s.Train, s.Evaluate)
		}
		if sum := s.Select + s.Train + s.Aggregate + s.Evaluate; s.Total < sum {
			t.Errorf("round %d: total %v below phase sum %v", i, s.Total, sum)
		}
		if s.RoundsPerSec <= 0 {
			t.Errorf("round %d: rounds/sec %v", i, s.RoundsPerSec)
		}
		if s.Workers != 4 {
			t.Errorf("round %d: workers = %d, want 4", i, s.Workers)
		}
		claimed := 0
		for _, c := range s.WorkerClaims {
			claimed += c
		}
		if claimed != quickConfig().ClientsPerRound {
			t.Errorf("round %d: claims %v sum to %d, want K=%d",
				i, s.WorkerClaims, claimed, quickConfig().ClientsPerRound)
		}
		if !s.MemSampled {
			t.Errorf("round %d: memstats not sampled despite SetMemSampling", i)
		}
		for p := PhaseSelect; p <= PhaseEvaluate; p++ {
			if s.PhaseDuration(p) < 0 {
				t.Errorf("round %d: %v duration negative", i, p)
			}
		}
	}
}

// TestObserverDeterminism pins the contract from DESIGN.md §7: attaching an
// observer (even with memstats sampling) must not change a single bit of
// the training trajectory.
func TestObserverDeterminism(t *testing.T) {
	shards, test := quickShards(t, 10)
	run := func(observed bool) ([]RoundRecord, []float64) {
		opts := []Option{WithTestSet(test), WithParallelism(3)}
		if observed {
			opts = append(opts,
				WithRoundObserver(FuncObserver(func(RoundStats) { time.Sleep(time.Millisecond) })),
			)
		}
		engine, err := NewEngine(quickConfig(), shards, opts...)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		engine.SetMemSampling(observed)
		if _, err := engine.Run(MaxRounds(4)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return engine.History(), append([]float64(nil), engine.Global().W.RawData()...)
	}
	plainHist, plainW := run(false)
	obsHist, obsW := run(true)
	if !reflect.DeepEqual(plainHist, obsHist) {
		t.Errorf("histories diverge with an observer attached:\n%+v\nvs\n%+v", plainHist, obsHist)
	}
	if !reflect.DeepEqual(plainW, obsW) {
		t.Error("global weights diverge bit-wise with an observer attached")
	}
}

// TestAsyncObserverDeterminism is the same contract for the async engine,
// including observed staleness-dropped steps.
func TestAsyncObserverDeterminism(t *testing.T) {
	shards, test := quickShards(t, 6)
	cfg := defaultAsyncConfig()
	cfg.LocalEpochs = 2
	cfg.MaxStaleness = 2 // force some dropped steps into the observed stream
	run := func(observed bool) ([]AsyncUpdate, int) {
		engine, err := NewAsyncEngine(cfg, shards, test)
		if err != nil {
			t.Fatalf("NewAsyncEngine: %v", err)
		}
		dropped := 0
		if observed {
			engine.SetRoundObserver(FuncObserver(func(s RoundStats) { dropped += s.Dropped }))
			engine.SetMemSampling(true)
		}
		if _, err := engine.Run(MaxAsyncSteps(12)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return engine.History(), dropped
	}
	plain, _ := run(false)
	observed, obsDropped := run(true)
	if !reflect.DeepEqual(histNoNaN(plain), histNoNaN(observed)) {
		t.Errorf("async histories diverge with an observer attached")
	}
	wantDropped := 0
	for _, u := range plain {
		if !u.Applied {
			wantDropped++
		}
	}
	if obsDropped != wantDropped {
		t.Errorf("observer saw %d dropped steps, history has %d", obsDropped, wantDropped)
	}
}

// histNoNaN zeroes the NaN metric fields of dropped updates so DeepEqual
// can compare histories (NaN != NaN).
func histNoNaN(h []AsyncUpdate) []AsyncUpdate {
	out := append([]AsyncUpdate(nil), h...)
	for i := range out {
		if !out[i].Applied {
			out[i].TrainLoss, out[i].TestAccuracy = 0, 0
		}
	}
	return out
}

// TestObserverRace exercises the observer plumbing under the race detector:
// a mutating observer on an engine with Parallelism=4 (claims counters are
// written by pool workers and read by the observer), plus one shared
// TraceWriter observed by two concurrently-training engines.
func TestObserverRace(t *testing.T) {
	shards, test := quickShards(t, 10)
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)

	seen := make(map[int]int)
	var claims []int
	mutating := FuncObserver(func(s RoundStats) {
		seen[s.Round]++
		claims = append(claims[:0], s.WorkerClaims...)
		tw.ObserveRound(s)
	})

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := quickConfig()
			cfg.Seed = uint64(g + 1)
			opts := []Option{WithTestSet(test), WithParallelism(4), WithRoundObserver(tw)}
			if g == 0 {
				// Engine 0 carries the mutating observer; engine 1 writes to
				// the shared TraceWriter directly.
				opts[2] = WithRoundObserver(mutating)
			}
			engine, err := NewEngine(cfg, shards, opts...)
			if err != nil {
				t.Errorf("NewEngine: %v", err)
				return
			}
			if _, err := engine.Run(MaxRounds(3)); err != nil {
				t.Errorf("Run: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if err := tw.Err(); err != nil {
		t.Fatalf("TraceWriter error: %v", err)
	}
	if tw.Lines() != 6 {
		t.Errorf("TraceWriter saw %d rounds, want 6", tw.Lines())
	}
	if len(seen) != 3 || len(claims) == 0 {
		t.Errorf("mutating observer state: rounds %v, claims %v", seen, claims)
	}
}

// TestTraceWriterJSONL decodes the sink's output and checks the schema
// documented in DESIGN.md §7.
func TestTraceWriterJSONL(t *testing.T) {
	shards, test := quickShards(t, 10)
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	engine, err := NewEngine(quickConfig(), shards, WithTestSet(test),
		WithRoundObserver(tw))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	engine.SetMemSampling(true)
	if _, err := engine.Run(MaxRounds(2)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		for _, key := range []string{"round", "select_ns", "train_ns", "aggregate_ns",
			"evaluate_ns", "total_ns", "rounds_per_sec", "workers", "mem_sampled"} {
			if _, ok := m[key]; !ok {
				t.Errorf("line %d missing %q: %s", i, key, line)
			}
		}
		if m["round"] != float64(i) {
			t.Errorf("line %d has round %v", i, m["round"])
		}
	}
	var s RoundStats
	if err := json.Unmarshal(lines[0], &s); err != nil {
		t.Fatalf("RoundStats round trip: %v", err)
	}
	if s.Total <= 0 || !s.MemSampled {
		t.Errorf("round-tripped stats lost data: %+v", s)
	}
}

// TestTraceWriterStickyError pins that a failing sink reports its first
// error and stops counting lines.
func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(failWriter{})
	tw.ObserveRound(RoundStats{Round: 0})
	tw.ObserveRound(RoundStats{Round: 1})
	if tw.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if tw.Lines() != 0 {
		t.Errorf("Lines = %d after failed writes, want 0", tw.Lines())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = errWriteType{}

type errWriteType struct{}

func (errWriteType) Error() string { return "sink closed" }

// TestTee pins the fan-out contract the -calibrate/-trace composition relies
// on: nils are skipped, a single live observer is returned unwrapped (no
// indirection on the hot path), and every live observer sees every record in
// order.
func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live observers must be nil")
	}
	var a, b []RoundStats
	fa := FuncObserver(func(s RoundStats) { a = append(a, s) })
	fb := FuncObserver(func(s RoundStats) { b = append(b, s) })
	if got := Tee(nil, fa); reflect.ValueOf(got).Pointer() != reflect.ValueOf(fa).Pointer() {
		t.Error("single live observer must be returned unwrapped")
	}
	tee := Tee(fa, nil, fb)
	for i := 0; i < 3; i++ {
		tee.ObserveRound(RoundStats{Round: i})
	}
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("fan-out delivered %d/%d records, want 3/3", len(a), len(b))
	}
	for i := range a {
		if a[i].Round != i || b[i].Round != i {
			t.Errorf("record %d out of order: %d / %d", i, a[i].Round, b[i].Round)
		}
	}
}

// TestReadTraceRoundTrips pins the decoder against the writer: a TraceWriter
// stream decodes back to the observed records, blank lines are skipped,
// malformed lines error with their line number, and empty input is an empty
// (not error) result — callers wanting empty-is-error add their own check.
func TestReadTraceRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	want := []RoundStats{
		{Round: 0, Select: time.Millisecond, Train: 2 * time.Millisecond, Total: 4 * time.Millisecond},
		{Round: 1, Train: 3 * time.Millisecond, Dropped: 1, Total: 3 * time.Millisecond},
	}
	for _, s := range want {
		tw.ObserveRound(s)
	}
	buf.WriteString("\n   \n") // trailing blanks must be skipped
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Round != want[i].Round || got[i].Train != want[i].Train ||
			got[i].Dropped != want[i].Dropped || got[i].Total != want[i].Total {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	if _, err := ReadTrace(bytes.NewReader(nil)); err != nil {
		t.Errorf("empty input = %v, want nil error", err)
	}
	_, err = ReadTrace(bytes.NewReader([]byte("{\"round\":0}\nnot json")))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("line 2")) {
		t.Errorf("malformed line error = %v, want mention of line 2", err)
	}
}
