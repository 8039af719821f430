package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodb"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one operation share Op; Parent is the index of
// the enclosing span within the operation (-1 for the operation's root).
type span struct {
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opRecord is one finished traced operation: its spans and, when the
// engine profiled it, the profile's phase split and counters.
type opRecord struct {
	ID      int64         `json:"id"`
	Kind    string        `json:"kind"`
	Run     bool          `json:"run"` // in the measured window, not set-up
	Spans   []span        `json:"spans"`
	Profile *nodb.Profile `json:"profile,omitempty"`
}

// tracer keeps every traced operation in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0     time.Time
	nextOp atomic.Int64
	mu     sync.Mutex
	ops    []*opRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op is an operation being traced; nil when tracing is off.
type op struct {
	tr  *tracer
	rec opRecord
}

// begin starts an operation whose root span is named kind; run marks it
// as part of the measured window.
func (tr *tracer) begin(kind string, run bool) *op {
	if tr == nil {
		return nil
	}
	o := &op{tr: tr, rec: opRecord{ID: tr.nextOp.Add(1), Kind: kind, Run: run}}
	o.start(kind, -1)
	return o
}

// start opens a span under parent and returns its index.
func (o *op) start(name string, parent int) int {
	if o == nil {
		return 0
	}
	o.rec.Spans = append(o.rec.Spans, span{Op: o.rec.ID, Parent: parent, Name: name,
		Start: int64(time.Since(o.tr.t0))})
	return len(o.rec.Spans) - 1
}

// end closes span i.
func (o *op) end(i int) {
	if o == nil {
		return
	}
	o.rec.Spans[i].End = int64(time.Since(o.tr.t0))
}

// finish closes the root span and hands the operation to the tracer.
func (o *op) finish(prof *nodb.Profile) {
	if o == nil {
		return
	}
	o.end(0)
	o.rec.Profile = prof
	o.tr.mu.Lock()
	o.tr.ops = append(o.tr.ops, &o.rec)
	o.tr.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every span of the
// operations keep selects: its duration minus the part of it that its
// child spans cover.
func (tr *tracer) selfTimes(keep func(*opRecord) bool) map[string]sample {
	out := map[string]sample{}
	for _, rec := range tr.ops {
		if !keep(rec) {
			continue
		}
		for i, s := range rec.Spans {
			var kids [][2]int64
			for _, c := range rec.Spans {
				if c.Parent == i {
					kids = append(kids, [2]int64{c.Start, c.End})
				}
			}
			self := (s.End - s.Start) - covered(kids, s.Start, s.End)
			out[s.Name] = append(out[s.Name], float64(self)/1e6)
		}
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// coverage returns, over the measured window's operations with child
// spans, the share of each root span that its child spans cover, and the
// share the engine's own top-level profile phases (queue, plan, bind,
// execute) account for.
func (tr *tracer) coverage() (spans, engine sample) {
	for _, rec := range tr.ops {
		if !rec.Run {
			continue
		}
		root := rec.Spans[0]
		dur := root.End - root.Start
		if dur <= 0 || len(rec.Spans) < 2 {
			continue
		}
		var kids [][2]int64
		for _, c := range rec.Spans {
			if c.Parent == 0 {
				kids = append(kids, [2]int64{c.Start, c.End})
			}
		}
		spans = append(spans, float64(covered(kids, root.Start, root.End))/float64(dur))
		if rec.Profile != nil {
			engine = append(engine, min(1, float64(rec.Profile.Phases.TopLevelNS())/float64(dur)))
		}
	}
	return spans, engine
}

// write stores every traced operation as JSON at path.
func (tr *tracer) write(path string, summary any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"summary": summary, "ops": tr.ops}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
