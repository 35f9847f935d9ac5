package obs

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"achilles/internal/types"
)

func sampledCtx(id uint64) types.TraceContext {
	return types.TraceContext{ID: id, Sampled: true}
}

func TestSpanTracerSampling(t *testing.T) {
	tr := NewSpanTracer(SpanConfig{SampleEvery: 4, Node: 7})
	sampled := 0
	ids := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		ctx := tr.NewTrace()
		if ctx.ID == 0 {
			t.Fatalf("trace %d: zero ID from enabled tracer", i)
		}
		if ids[ctx.ID] {
			t.Fatalf("trace %d: duplicate ID %#x", i, ctx.ID)
		}
		ids[ctx.ID] = true
		if ctx.ID>>32 != 8 {
			t.Fatalf("trace %d: ID %#x does not carry node base 8", i, ctx.ID)
		}
		if ctx.Sampled {
			sampled++
		}
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at 1/4, want 16", sampled)
	}

	// Unsampled contexts record nothing.
	tr.Observe(types.TraceContext{ID: 9}, StageCommit, 1, 2, time.Millisecond, "")
	if tr.Seq() != 0 {
		t.Fatalf("unsampled Observe recorded a span")
	}
	if s := tr.Start(types.TraceContext{ID: 9}, StageQuorum, 1, 2, ""); s != nil {
		t.Fatalf("unsampled Start returned an active span")
	}
}

func TestSpanTracerDisabled(t *testing.T) {
	tr := NewSpanTracer(SpanConfig{SampleEvery: -1})
	if tr.Enabled() {
		t.Fatalf("negative SampleEvery should disable the tracer")
	}
	if ctx := tr.NewTrace(); ctx != (types.TraceContext{}) {
		t.Fatalf("disabled tracer minted %+v", ctx)
	}
}

// TestSpanTracerNilReceiver drives every exported method through a nil
// tracer and a nil active span: instrumented code relies on this being
// a no-op so the untraced path needs no enablement checks.
func TestSpanTracerNilReceiver(t *testing.T) {
	var tr *SpanTracer
	if ctx := tr.NewTrace(); ctx != (types.TraceContext{}) {
		t.Fatalf("nil tracer minted %+v", ctx)
	}
	tr.Observe(sampledCtx(1), StageCommit, 1, 2, time.Millisecond, "x")
	if s := tr.Start(sampledCtx(1), StageQuorum, 1, 2, ""); s != nil {
		t.Fatalf("nil tracer Start returned non-nil")
	}
	tr.RecordCritical(CriticalPath{TraceID: 1})
	if tr.Enabled() || tr.SampleEvery() != 0 || tr.Seq() != 0 || tr.Len() != 0 {
		t.Fatalf("nil tracer reports state")
	}
	if tr.Spans(0) != nil || tr.ActiveSpans() != nil || tr.Criticals(0) != nil {
		t.Fatalf("nil tracer returned spans")
	}
	if tr.StageSummaries() != nil || tr.StageSamples() != nil {
		t.Fatalf("nil tracer returned summaries")
	}
	if snap := tr.SnapshotSpans(0); snap.Total != 0 || snap.Spans != nil {
		t.Fatalf("nil tracer snapshot non-empty: %+v", snap)
	}

	var s *ActiveSpan
	s.End() // must not panic
	s.End() // and stays safe when repeated
}

// TestSpanRingWraparoundConcurrent hammers the completed-span ring from
// several writers past many wraparounds, then checks the survivors are
// exactly the highest-seq contiguous window: Seq increases by one per
// recorded span, so after wraparound the buffered spans' sequence
// numbers must be {total-cap+1 .. total} with no gaps or duplicates.
// Run under -race this is also the concurrency check for record().
func TestSpanRingWraparoundConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 200 // 1600 spans through a 64-slot ring
	)
	tr := NewSpanTracer(SpanConfig{Capacity: spanMinCapacity, SampleEvery: 1, Node: 3})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				ctx := sampledCtx(uint64(w)<<16 | uint64(i))
				switch i % 3 {
				case 0:
					tr.Observe(ctx, StageCommit, uint64(w), uint64(i), time.Microsecond, "")
				case 1:
					tr.Start(ctx, StageQuorum, uint64(w), uint64(i), "").End()
				default:
					tr.Observe(ctx, StageEcall, uint64(w), uint64(i), 0, "msg")
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(writers * perW)
	if got := tr.Seq(); got != total {
		t.Fatalf("Seq() = %d, want %d", got, total)
	}
	spans := tr.Spans(0)
	if len(spans) != spanMinCapacity {
		t.Fatalf("ring holds %d spans, want capacity %d", len(spans), spanMinCapacity)
	}
	seen := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Seq <= total-spanMinCapacity || sp.Seq > total {
			t.Fatalf("span seq %d outside surviving window (%d, %d]", sp.Seq, total-spanMinCapacity, total)
		}
		if seen[sp.Seq] {
			t.Fatalf("duplicate span seq %d after wraparound", sp.Seq)
		}
		seen[sp.Seq] = true
	}
	if len(seen) != spanMinCapacity {
		t.Fatalf("gap detected: %d distinct seqs in a full ring of %d", len(seen), spanMinCapacity)
	}
	// Record order: the snapshot must come out oldest-first.
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("snapshot out of order at %d: seq %d after %d", i, spans[i].Seq, spans[i-1].Seq)
		}
	}
}

func TestSpanActiveBoundAndCriticalRing(t *testing.T) {
	tr := NewSpanTracer(SpanConfig{SampleEvery: 1})
	// Leak far more active spans than the bound; the map must stay
	// bounded by evicting the oldest.
	for i := 0; i < spanMaxActive+50; i++ {
		tr.Start(sampledCtx(uint64(i+1)), StageQuorum, 0, uint64(i), "")
	}
	act := tr.ActiveSpans()
	if len(act) != spanMaxActive {
		t.Fatalf("active spans %d, want bound %d", len(act), spanMaxActive)
	}
	// Critical-path ring keeps the most recent spanMaxCritical.
	for i := 0; i < spanMaxCritical+10; i++ {
		tr.RecordCritical(CriticalPath{TraceID: uint64(i), Height: uint64(i)})
	}
	crit := tr.Criticals(0)
	if len(crit) != spanMaxCritical {
		t.Fatalf("criticals %d, want bound %d", len(crit), spanMaxCritical)
	}
	if first := crit[0].Height; first != 10 {
		t.Fatalf("oldest surviving critical height %d, want 10", first)
	}
	if got := tr.Criticals(3); len(got) != 3 || got[2].Height != uint64(spanMaxCritical+9) {
		t.Fatalf("Criticals(3) tail = %+v", got)
	}
}

func TestActiveSpanEndIdempotent(t *testing.T) {
	tr := NewSpanTracer(SpanConfig{SampleEvery: 1})
	s := tr.Start(sampledCtx(5), StageQuorum, 1, 7, "")
	if s == nil {
		t.Fatalf("sampled Start returned nil")
	}
	s.End()
	s.End()
	if got := tr.Seq(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
	if act := tr.ActiveSpans(); len(act) != 0 {
		t.Fatalf("span still active after End: %+v", act)
	}
	sum := tr.StageSummaries()
	if sum[StageQuorum].Count != 1 {
		t.Fatalf("stage summary count = %d, want 1", sum[StageQuorum].Count)
	}
}

func TestFlightRecorderNilAndErrors(t *testing.T) {
	var f *FlightRecorder
	f.Trigger("view-timeout", 1, 2, "nil recorder") // must not panic
	if d := f.Dumps(); d != nil {
		t.Fatalf("nil recorder has dumps: %v", d)
	}
	if _, err := NewFlightRecorder(FlightConfig{}); err == nil {
		t.Fatalf("empty Dir accepted")
	}
}

// TestFlightRecorderDump exercises the full trigger path: a dump must
// appear on disk, parse back into FlightDump, and carry the span
// snapshot (including the still-open span that marks a stalled stage);
// triggers inside MinInterval are suppressed and counted; the file
// count stays bounded with oldest-first eviction.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	tr := NewSpanTracer(SpanConfig{SampleEvery: 1, Node: 2})
	tr.Observe(sampledCtx(11), StageCommit, 3, 9, 2*time.Millisecond, "")
	open := tr.Start(sampledCtx(11), StageQuorum, 3, 10, "stalled")
	defer open.End()

	f, err := NewFlightRecorder(FlightConfig{
		Dir:         dir,
		Node:        "node-2",
		MaxDumps:    2,
		MinInterval: 50 * time.Millisecond,
		Spans:       tr,
		Status:      func() any { return map[string]any{"view": 3} },
	})
	if err != nil {
		t.Fatalf("NewFlightRecorder: %v", err)
	}

	f.Trigger("view-timeout", 3, 10, "failures=1")
	f.Trigger("view-timeout", 3, 10, "inside interval") // suppressed
	waitDumps(t, f, 1)

	files := ListFlightDumps(dir)
	if len(files) != 1 {
		t.Fatalf("ListFlightDumps: %d files, want 1", len(files))
	}
	var dump FlightDump
	buf, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	if err := json.Unmarshal(buf, &dump); err != nil {
		t.Fatalf("dump is not parseable JSON: %v", err)
	}
	if dump.Reason != "view-timeout" || dump.View != 3 || dump.Height != 10 || dump.Node != "node-2" {
		t.Fatalf("dump header = %+v", dump)
	}
	if len(dump.Spans.Spans) != 1 || dump.Spans.Spans[0].TraceID != 11 {
		t.Fatalf("dump completed spans = %+v", dump.Spans.Spans)
	}
	if len(dump.Spans.Active) != 1 || !dump.Spans.Active[0].Active || dump.Spans.Active[0].Detail != "stalled" {
		t.Fatalf("dump active spans = %+v", dump.Spans.Active)
	}

	// Past the interval: the next dump records the suppressed count...
	time.Sleep(60 * time.Millisecond)
	f.Trigger("recovery", 4, 10, "epoch=1")
	waitDumps(t, f, 2)
	var second FlightDump
	files = f.Dumps()
	buf, _ = os.ReadFile(files[len(files)-1])
	if err := json.Unmarshal(buf, &second); err != nil {
		t.Fatalf("second dump: %v", err)
	}
	if second.Suppressed != 1 {
		t.Fatalf("second dump suppressed = %d, want 1", second.Suppressed)
	}

	// ...and a third evicts the oldest, keeping MaxDumps files.
	oldest := f.Dumps()[0]
	time.Sleep(60 * time.Millisecond)
	f.Trigger("commit-stall", 4, 10, "")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(oldest); os.IsNotExist(err) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(oldest); !os.IsNotExist(err) {
		t.Fatalf("oldest dump %s not evicted", oldest)
	}
	if got := ListFlightDumps(dir); len(got) != 2 {
		t.Fatalf("on-disk dumps after eviction: %d, want 2", len(got))
	}
	for _, p := range f.Dumps() {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("kept dump missing: %v", err)
		}
	}
}

// waitDumps waits for the recorder's async writer to land n dumps.
func waitDumps(t *testing.T, f *FlightRecorder, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(f.Dumps()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(f.Dumps()); got < n {
		t.Fatalf("flight recorder wrote %d dumps, want %d", got, n)
	}
}
