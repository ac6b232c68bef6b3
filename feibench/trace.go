package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one traced interval on the tracer's clock (nanoseconds since the
// tracer was created). Parent is the id of the span that caused it, -1 for
// a root; Round is the federated round the span belongs to, -1 outside the
// round loop.
type span struct {
	Name   string
	Parent int32
	Round  int32
	Start  int64
	End    int64
}

// tracer keeps spans in a buffer allocated once up front, so recording a
// span never allocates; spans past its capacity are counted and dropped.
// Any goroutine may record: each span owns the slot its id names, and the
// buffer is read only after every recording goroutine has been waited for.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// round and roundSpan name the round in flight (-1 between rounds), so
	// conn wrappers running on other goroutines can parent their spans.
	round     atomic.Int32
	roundSpan atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, capacity)}
	t.round.Store(-1)
	t.roundSpan.Store(-1)
	return t
}

// now reads the tracer clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(w.Sub(t.epoch))
}

// add records a span whose bounds are already known and returns its id, or
// -1 when the tracer is nil or full.
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Parent: parent, Round: t.round.Load(), Start: start, End: end}
	return int32(i)
}

// begin opens a span ending when end(id) is called.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := t.now()
	return t.add(name, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// parent returns the open round span, the parent of work done in a round.
func (t *tracer) parent() int32 {
	if t == nil {
		return -1
	}
	return t.roundSpan.Load()
}

// beginRound opens the span of round r at the given instant.
func (t *tracer) beginRound(r int, at time.Time) {
	if t == nil {
		return
	}
	t.round.Store(int32(r))
	id := t.add("round", -1, t.at(at), t.at(at))
	t.roundSpan.Store(id)
}

// endRound closes the open round span, if any.
func (t *tracer) endRound(at time.Time) {
	if t == nil {
		return
	}
	if id := t.roundSpan.Load(); id >= 0 {
		t.spans[id].End = t.at(at)
	}
	t.round.Store(-1)
	t.roundSpan.Store(-1)
}

// recorded returns the spans kept so far. Call it only once every goroutine
// that records has finished.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// remaining is how many more spans fit.
func (t *tracer) remaining() int {
	return len(t.spans) - int(min(t.n.Load(), int64(len(t.spans))))
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may nest, overlap each other
// or reach outside their parent; each instant of the parent is subtracted
// at most once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		ivs = ivs[:0]
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] -= covered
	}
	return self
}

// writeTrace writes the host stamp and then one JSON object per span, with
// its self time, to path.
func writeTrace(path string, h hostInfo, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	head, err := json.Marshal(struct {
		Host    hostInfo `json:"host"`
		Spans   int      `json:"spans"`
		Dropped int64    `json:"dropped"`
	}{h, len(spans), dropped})
	if err != nil {
		return fmt.Errorf("encode trace header: %w", err)
	}
	w.Write(head)
	w.WriteByte('\n')
	self := selfTimes(spans)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"round":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			i, s.Parent, s.Round, s.Name, s.Start, s.End, self[i])
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}
