package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/types"
)

// This file is the causal-tracing layer: sampled per-height /
// per-transaction spans whose trace context (types.TraceContext) rides
// the live wire frames, so one height's spans correlate across
// replicas by (trace ID, height) — the per-process clocks behind
// TraceEvent.At make wall-clock correlation meaningless. Everything is
// nil-receiver-safe and gated on the sampled bit so an untraced hot
// path pays a nil check and nothing else.

// Span stages, in transaction-lifecycle order. The leader-path trio
// propose / quorum-assembly / commit tiles the proposed→committed
// interval measured by achilles_commit_latency_seconds; the rest
// attribute work inside or around those windows.
const (
	// StageMempoolWait is the oldest admitted transaction's queue wait
	// when a batch is drawn.
	StageMempoolWait = "mempool-wait"
	// StageBatch is batch assembly plus speculative execution in
	// propose().
	StageBatch = "batch"
	// StagePropose is block build, TEEprepare, broadcast and self-vote
	// (block.Proposed → end of propose()).
	StagePropose = "propose"
	// StageQuorum is quorum assembly on the leader (end of propose() →
	// decide).
	StageQuorum = "quorum-assembly"
	// StageEcall is one trusted-component call, attributed by function
	// name in the span detail.
	StageEcall = "tee-ecall"
	// StageCommit is the in-loop commit step (decide → ledger commit,
	// execute, client replies, durable persist).
	StageCommit = "commit"
	// StageExecute is the post-commit observer, run inline in the commit
	// step.
	StageExecute = "execute"
	// StageEgress is client-reply fan-out, run inline in the commit step.
	StageEgress = "egress-reply"
	// StageDurable is the WAL/snapshot persist inside the commit step.
	StageDurable = "durable-persist"
)

// SpanStages lists every stage, in lifecycle order.
var SpanStages = []string{
	StageMempoolWait, StageBatch, StagePropose, StageQuorum,
	StageEcall, StageCommit, StageExecute, StageEgress, StageDurable,
}

// CriticalStages are the stages that tile the leader's
// proposed→committed interval; their sum is the critical-path
// accounting the trace-breakdown bench checks against end-to-end
// commit latency.
var CriticalStages = []string{StagePropose, StageQuorum, StageCommit}

// Span is one recorded (or still-active) span.
type Span struct {
	// Seq increases by one per completed span (including overwritten
	// ring entries), so gaps after wraparound are detectable. Active
	// spans have Seq 0 until they end.
	Seq     uint64 `json:"seq,omitempty"`
	TraceID uint64 `json:"trace_id"`
	Stage   string `json:"stage"`
	View    uint64 `json:"view,omitempty"`
	Height  uint64 `json:"height,omitempty"`
	// Start is the local wall-clock start time; only ordering within
	// one process is meaningful.
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Detail     string    `json:"detail,omitempty"`
	// Active marks a span that had not ended when it was snapshotted
	// (DurationMS is then the age so far) — exactly what a flight dump
	// wants to show for a stalled height.
	Active bool `json:"active,omitempty"`
}

// CriticalPath is one committed height's stage attribution, recorded
// by the proposing leader at commit time.
type CriticalPath struct {
	TraceID uint64             `json:"trace_id"`
	View    uint64             `json:"view"`
	Height  uint64             `json:"height"`
	TotalMS float64            `json:"total_ms"`
	Stages  map[string]float64 `json:"stages_ms"`
}

// StageSummary aggregates one stage's recorded spans.
type StageSummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// SpanSnapshot is the JSON document served by /spans and embedded in
// flight-recorder dumps.
type SpanSnapshot struct {
	Total       uint64                  `json:"total"`
	SampleEvery int                     `json:"sample_every"`
	Stages      map[string]StageSummary `json:"stages,omitempty"`
	Spans       []Span                  `json:"spans,omitempty"`
	Active      []Span                  `json:"active,omitempty"`
	Critical    []CriticalPath          `json:"critical,omitempty"`
}

// SpanConfig configures a SpanTracer.
type SpanConfig struct {
	// Capacity bounds the completed-span ring (default 512, min 64).
	Capacity int
	// SampleEvery samples one trace in every SampleEvery minted
	// (DefSampleEvery when 0; negative disables tracing entirely —
	// NewTrace returns the zero context).
	SampleEvery int
	// Node distinguishes this process's trace IDs from its peers'
	// (replicas pass their node ID, clients anything disjoint).
	Node uint64
	// Registry, when set, backs the per-stage duration histograms as
	// achilles_span_stage_seconds{stage=...}; when nil the tracer keeps
	// private histograms so summaries still work.
	Registry *Registry
}

// DefSampleEvery is the default head-sampling rate (1 in 64 traces).
const DefSampleEvery = 64

const (
	spanMinCapacity = 64
	spanDefCapacity = 512
	spanMaxActive   = 256
	spanMaxCritical = 256
)

// SpanTracer mints trace contexts, records completed spans into a
// bounded ring, tracks still-active spans, aggregates per-stage
// duration histograms and keeps the last committed critical paths. A
// nil *SpanTracer records nothing and mints only zero contexts. Safe
// for concurrent use.
type SpanTracer struct {
	every uint64
	base  uint64
	tick  atomic.Uint64

	hists map[string]*Histogram

	mu       sync.Mutex
	buf      []Span
	next     int
	seq      uint64
	active   map[uint64]*ActiveSpan
	activeID uint64
	crit     []CriticalPath
	critNext int
}

// NewSpanTracer builds a tracer from cfg.
func NewSpanTracer(cfg SpanConfig) *SpanTracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = spanDefCapacity
	}
	if cfg.Capacity < spanMinCapacity {
		cfg.Capacity = spanMinCapacity
	}
	every := uint64(0)
	switch {
	case cfg.SampleEvery == 0:
		every = DefSampleEvery
	case cfg.SampleEvery > 0:
		every = uint64(cfg.SampleEvery)
	}
	t := &SpanTracer{
		every:  every,
		base:   (cfg.Node + 1) << 32,
		hists:  make(map[string]*Histogram, len(SpanStages)),
		buf:    make([]Span, 0, cfg.Capacity),
		active: make(map[uint64]*ActiveSpan),
		crit:   make([]CriticalPath, 0, spanMaxCritical),
	}
	const help = "Recorded span duration per trace stage (sampled)."
	for _, stage := range SpanStages {
		if cfg.Registry != nil {
			t.hists[stage] = cfg.Registry.Histogram("achilles_span_stage_seconds", help, nil, L("stage", stage))
		} else {
			t.hists[stage] = newHistogram(DefLatencyBuckets)
		}
	}
	return t
}

// SampleEvery returns the configured sampling rate (0 when the tracer
// is nil or disabled).
func (t *SpanTracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Enabled reports whether the tracer can ever sample.
func (t *SpanTracer) Enabled() bool { return t != nil && t.every != 0 }

// NewTrace mints the context for a new traced unit of work. One in
// every SampleEvery contexts has the sampled bit set; every context
// gets a process-unique ID so even unsampled traffic is attributable
// if a peer samples it independently.
func (t *SpanTracer) NewTrace() types.TraceContext {
	if t == nil || t.every == 0 {
		return types.TraceContext{}
	}
	n := t.tick.Add(1)
	return types.TraceContext{
		ID:      t.base | (n & 0xffffffff),
		Sampled: n%t.every == 0,
	}
}

// Observe records one completed span whose duration the caller
// measured. No-op unless ctx is sampled.
func (t *SpanTracer) Observe(ctx types.TraceContext, stage string, view, height uint64, d time.Duration, detail string) {
	if t == nil || !ctx.Sampled {
		return
	}
	if d < 0 {
		d = 0
	}
	t.hists[stage].ObserveDuration(d)
	t.record(Span{
		TraceID:    ctx.ID,
		Stage:      stage,
		View:       view,
		Height:     height,
		Start:      time.Now().Add(-d),
		DurationMS: durMS(d),
		Detail:     detail,
	})
}

// ActiveSpan is a started, not-yet-ended span. A nil *ActiveSpan (the
// result of starting an unsampled span) ignores End.
type ActiveSpan struct {
	t    *SpanTracer
	id   uint64
	span Span
	done atomic.Bool
}

// Start opens a span that ends when End is called. Until then it is
// visible in ActiveSpans and flight dumps — a span that never ends is
// the signature of a stalled stage. Returns nil unless ctx is sampled.
func (t *SpanTracer) Start(ctx types.TraceContext, stage string, view, height uint64, detail string) *ActiveSpan {
	if t == nil || !ctx.Sampled {
		return nil
	}
	s := &ActiveSpan{t: t, span: Span{
		TraceID: ctx.ID,
		Stage:   stage,
		View:    view,
		Height:  height,
		Start:   time.Now(),
		Detail:  detail,
		Active:  true,
	}}
	t.mu.Lock()
	t.activeID++
	s.id = t.activeID
	t.active[s.id] = s
	if len(t.active) > spanMaxActive {
		oldest := uint64(0)
		for id := range t.active {
			if oldest == 0 || id < oldest {
				oldest = id
			}
		}
		delete(t.active, oldest)
	}
	t.mu.Unlock()
	return s
}

// End completes the span, recording it into the ring and the stage
// histogram. Safe on nil and idempotent.
func (s *ActiveSpan) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	d := time.Since(s.span.Start)
	t := s.t
	t.hists[s.span.Stage].ObserveDuration(d)
	sp := s.span
	sp.Active = false
	sp.DurationMS = durMS(d)
	t.mu.Lock()
	delete(t.active, s.id)
	t.mu.Unlock()
	t.record(sp)
}

func (t *SpanTracer) record(sp Span) {
	t.mu.Lock()
	t.seq++
	sp.Seq = t.seq
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, sp)
	} else {
		t.buf[t.next] = sp
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// RecordCritical stores one committed height's critical-path
// attribution (bounded ring of the most recent spanMaxCritical).
func (t *SpanTracer) RecordCritical(cp CriticalPath) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.crit) < cap(t.crit) {
		t.crit = append(t.crit, cp)
	} else {
		t.crit[t.critNext] = cp
	}
	t.critNext = (t.critNext + 1) % cap(t.crit)
	t.mu.Unlock()
}

// Seq returns the total number of completed spans ever recorded.
func (t *SpanTracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Len returns the number of buffered completed spans.
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Spans returns buffered completed spans in record order. With max > 0
// only the most recent max are returned.
func (t *SpanTracer) Spans(max int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		out = append(out, t.buf...)
	} else {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	}
	t.mu.Unlock()
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// ActiveSpans snapshots the still-open spans, oldest first, with
// DurationMS set to each span's age so far.
func (t *SpanTracer) ActiveSpans() []Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	out := make([]Span, 0, len(t.active))
	for _, s := range t.active {
		sp := s.span
		sp.DurationMS = durMS(now.Sub(sp.Start))
		out = append(out, sp)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Criticals returns the recorded critical paths in record order (most
// recent max when max > 0).
func (t *SpanTracer) Criticals(max int) []CriticalPath {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]CriticalPath, 0, len(t.crit))
	if len(t.crit) < cap(t.crit) {
		out = append(out, t.crit...)
	} else {
		out = append(out, t.crit[t.critNext:]...)
		out = append(out, t.crit[:t.critNext]...)
	}
	t.mu.Unlock()
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// StageSummaries aggregates every stage with at least one observation.
func (t *SpanTracer) StageSummaries() map[string]StageSummary {
	if t == nil {
		return nil
	}
	out := make(map[string]StageSummary)
	for stage, h := range t.hists {
		n := h.Count()
		if n == 0 {
			continue
		}
		s := h.Summary()
		out[stage] = StageSummary{
			Count:  n,
			MeanMS: s.Mean * 1e3,
			P50MS:  s.P50 * 1e3,
			P99MS:  s.P99 * 1e3,
		}
	}
	return out
}

// StageSamples returns each stage's recent raw samples in seconds
// (bounded by the histogram reservoir), for callers that merge
// observations across several tracers before summarizing.
func (t *SpanTracer) StageSamples() map[string][]float64 {
	if t == nil {
		return nil
	}
	out := make(map[string][]float64)
	for stage, h := range t.hists {
		if vs := h.recentSamples(); len(vs) > 0 {
			out[stage] = vs
		}
	}
	return out
}

// SnapshotSpans assembles the full snapshot document (most recent max
// completed spans when max > 0).
func (t *SpanTracer) SnapshotSpans(max int) SpanSnapshot {
	if t == nil {
		return SpanSnapshot{}
	}
	return SpanSnapshot{
		Total:       t.Seq(),
		SampleEvery: t.SampleEvery(),
		Stages:      t.StageSummaries(),
		Spans:       t.Spans(max),
		Active:      t.ActiveSpans(),
		Critical:    t.Criticals(max),
	}
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
