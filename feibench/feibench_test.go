package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantOK bool
	}{{1, false}, {10, false}, {99, false}, {100, true}, {250, true}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, ok := tailPercentile(xs, 90)
		if ok != tc.wantOK {
			t.Errorf("n=%d: p90 reported=%v, want %v", tc.n, ok, tc.wantOK)
		}
		// Nearest rank: the ceil(0.9·n)-th smallest value.
		if want := float64((9*tc.n + 9) / 10); ok && v != want {
			t.Errorf("n=%d: p90=%v, want %v", tc.n, v, want)
		}
	}
	if _, ok := tailPercentile(nil, 90); ok {
		t.Error("p90 of no samples reported")
	}
	for _, tc := range []struct {
		xs         []float64
		p, want    float64
		wantBeyond int
	}{
		{[]float64{15, 20, 35, 40, 50}, 30, 20, 3},
		{[]float64{15, 20, 35, 40, 50}, 50, 35, 2},
		{[]float64{15, 20, 35, 40, 50}, 100, 50, 0},
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 25, 7, 7},
		{[]float64{7}, 50, 7, 0},
	} {
		v, beyond := nearestRank(tc.xs, tc.p)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("nearestRank(%v, %v) = %v, %d beyond; want %v, %d", tc.xs, tc.p, v, beyond, tc.want, tc.wantBeyond)
		}
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		0: {Name: "root", Parent: -1, Start: 0, End: 100},
		1: {Name: "a", Parent: 0, Start: 10, End: 40},  // overlaps b
		2: {Name: "b", Parent: 0, Start: 30, End: 50},  // overlaps a
		3: {Name: "c", Parent: 0, Start: 45, End: 48},  // inside b
		4: {Name: "d", Parent: 0, Start: 90, End: 120}, // reaches past root
		5: {Name: "a1", Parent: 1, Start: 12, End: 20},
		6: {Name: "a2", Parent: 1, Start: 15, End: 25}, // overlaps a1
		7: {Name: "a3", Parent: 1, Start: 20, End: 20}, // empty
		8: {Name: "leaf", Parent: 5, Start: 12, End: 20},
		9: {Name: "other", Parent: -1, Start: 0, End: 7},
	}
	want := []int64{
		0: 100 - (50 - 10) - (100 - 90), // children cover [10,50) and [90,100)
		1: 30 - (25 - 12),               // a1 ∪ a2 = [12,25)
		2: 20,
		3: 3,
		4: 30,
		5: 0, // leaf covers all of a1
		6: 10,
		7: 0,
		8: 8,
		9: 7,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

// fakeDgram is a conn carrying datagram counters.
type fakeDgram struct{ net.Conn }

func (fakeDgram) DgramCounters() (int64, int64, int64, int64) { return 1, 2, 3, 4 }

func TestConnWrappersAccountBytesAndTime(t *testing.T) {
	tr := newTracer(64)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	coordSide, coord := wrapCoordConn(a, tr)
	edgeSide := wrapEdgeConn(b, tr)
	if _, ok := coordSide.(dgramCounters); ok {
		t.Fatal("a stream conn's wrapper claims datagram counters")
	}

	// A write outside any round is timed but not counted as round bytes.
	go func() { io.ReadFull(edgeSide, make([]byte, 3)) }()
	if _, err := coordSide.Write([]byte("hey")); err != nil {
		t.Fatal(err)
	}

	const compute = 5 * time.Millisecond
	tr.beginRound(0, time.Now())
	done := make(chan error, 1)
	go func() {
		req := make([]byte, 100)
		if _, err := io.ReadFull(edgeSide, req); err != nil {
			done <- err
			return
		}
		time.Sleep(compute)
		_, err := edgeSide.Write(make([]byte, 40))
		done <- err
	}()
	if _, err := coordSide.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(coordSide, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tr.endRound(time.Now())

	if tx, rx := coord.tx.Load(), coord.rx.Load(); tx != 100 || rx != 40 {
		t.Errorf("round bytes tx=%d rx=%d, want 100 and 40", tx, rx)
	}
	count := map[string]int{}
	var roundID int32 = -1
	spans := tr.recorded()
	for i, s := range spans {
		if s.Name == "round" {
			roundID = int32(i)
		}
	}
	for _, s := range spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
		if s.Round == 0 && s.Name != "round" && s.Parent != roundID {
			t.Errorf("%s in round 0 has parent %d, want the round span %d", s.Name, s.Parent, roundID)
		}
		if s.Name == "flnet.edge.compute" {
			if d := time.Duration(s.End - s.Start); d < compute {
				t.Errorf("edge compute %v, want at least the %v between request and reply", d, compute)
			}
		}
	}
	if count["flnet.conn.write"] != 2 || count["flnet.edge.write"] != 1 || count["flnet.edge.compute"] != 1 || count["flnet.conn.read"] < 1 {
		t.Errorf("span counts %v", count)
	}

	m, _ := wrapCoordConn(fakeDgram{a}, tr)
	dc, ok := m.(dgramCounters)
	if !ok {
		t.Fatal("coordinator wrapper hides DgramCounters")
	}
	if w, x, y, z := dc.DgramCounters(); w != 1 || x != 2 || y != 3 || z != 4 {
		t.Errorf("forwarded counters %d %d %d %d", w, x, y, z)
	}
	if _, ok := wrapEdgeConn(fakeDgram{b}, tr).(dgramCounters); !ok {
		t.Error("edge wrapper hides DgramCounters")
	}
}

// tiny shrinks a workload to a sub-second smoke run on the same code path.
func tiny(sp spec) spec {
	sp.seeds = 2
	switch sp.transport {
	case "inproc":
		sp.servers, sp.perServer, sp.testSamples, sp.side, sp.blobs = 4, 100, 200, 8, 3
		sp.noise, sp.k, sp.e, sp.lr, sp.eps, sp.rounds = 0.2, 2, 1, 0.5, 0.8, 30
	case "tcp":
		sp.rounds = 20
	case "dgram":
		sp.side, sp.blobs, sp.noise, sp.eps, sp.rounds = 8, 3, 0.2, 0.8, 10
	}
	return sp
}

func TestSmokeAllWorkloads(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, sp := range workloads {
		sp := tiny(sp)
		t.Run(sp.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := bench(sp, 7, 200*time.Millisecond, traced, t.TempDir())
				for _, f := range res.failures {
					t.Errorf("traced=%v: %s", traced, f)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("traced=%v: %d of %d reps failed", traced, res.failed, res.attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.metrics) != len(defs) {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.metrics), len(defs))
				}
				for i, m := range res.metrics {
					if m.name != defs[i].name || m.unit != defs[i].unit {
						t.Errorf("metric %d = %s [%s], want %s [%s]", i, m.name, m.unit, defs[i].name, defs[i].unit)
					}
					if !traced && m.value <= 0 {
						t.Errorf("end-to-end %s = %v, want > 0", m.name, m.value)
					}
				}
			}
		})
	}
	// Every rep shuts its cluster down and waits for its edges; transport
	// goroutines may take a moment to notice their closed sockets.
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines still running after the runs", n-before)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program %d workloads", names, len(workloads))
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		sort.Slice(got, func(i, j int) bool { return got[i].name < got[j].name })
		w := append([]metricDef(nil), want...)
		sort.Slice(w, func(i, j int) bool { return w[i].name < w[j].name })
		for i := range got {
			if got[i] != w[i] {
				t.Errorf("%s: BENCHMARK.json %+v, program %+v", kind, got[i], w[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}
