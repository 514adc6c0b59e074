package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Layers are the repository's modules plus the Go runtime split three
// ways. "driver" is this benchmark's own code (its events and its
// frames in the CPU profile); "other" is anything the tables below do
// not name (standard library leaves, packages outside the layer list).
var layerNames = []string{
	"sim", "netsim", "transport", "rpc", "core", "cluster", "rack",
	"fabric", "tenant", "ehdl", "ebpf", "gofront", "nvme", "pcie",
	"nvmeof", "seg", "storage", "apps", "wire", "telemetry", "fault",
	"bench", "goruntime.gc", "goruntime.malloc", "goruntime.other",
	"driver", "other",
}

// eventLayerNames are the layers that name engine events in the
// workloads whose engines the benchmark owns.
var eventLayerNames = []string{
	"sim", "netsim", "transport", "rpc", "cluster", "rack", "nvme",
	"pcie", "seg", "fabric", "tenant", "driver", "other",
}

// eventLayers maps engine event names to layers by prefix, first
// match wins. The coverage test fails when a workload executes an
// event no prefix claims, so a renamed event cannot drift silently
// into "other".
var eventLayers = []struct{ prefix, layer string }{
	{"cluster.recv", "sim"},
	{"net.", "netsim"},
	{"rel.", "transport"},
	{"udp.", "transport"},
	{"homa.", "transport"},
	{"rpc.", "rpc"},
	{"ckv.", "cluster"},
	{"rack.", "rack"},
	{"nvme", "nvme"},
	{"pcie.", "pcie"},
	{"seg.", "seg"},
	{"wfq:", "fabric"},
	{"drop:", "fabric"},
	{"fabric.", "fabric"},
	{"tenant.", "tenant"},
	{driverEventPrefix, "driver"},
}

// driverEventPrefix names the events this benchmark schedules itself.
const driverEventPrefix = "hb."

// eventLayer returns the layer that named an engine event, or "" when
// no prefix claims it.
func eventLayer(name string) string {
	for _, e := range eventLayers {
		if strings.HasPrefix(name, e.prefix) {
			return e.layer
		}
	}
	return ""
}

// spanLog keeps host-time spans in memory for one traced run, up to
// maxSpans; spans past the cap are counted in dropped, not kept (the
// per-layer ledger still counts every event). Every method is a no-op
// on a nil log, so untraced runs pay nothing.
type spanLog struct {
	origin  time.Time
	spans   []span
	dropped int
	run     int32
}

// maxSpans bounds a traced run's span log to about 30 MB of Chrome
// trace, which Perfetto still loads; uncapped, one tenant_churn run
// kept over a million spans.
const maxSpans = 200_000

// span is one host-time interval: a call the benchmark made into a
// layer, a whole run phase, or one engine event. Times are
// nanoseconds since the log's origin; parent indexes spans (-1: none).
type span struct {
	name       string
	layer      string
	start, end int64
	parent     int32
	run        int32
	tid        int32
}

func newSpanLog() *spanLog {
	//hyperlint:allow(nodeterm) host-time trace origin; spans measure the simulator, never feed model time
	return &spanLog{origin: time.Now()}
}

func (l *spanLog) now() int64 {
	//hyperlint:allow(nodeterm) host-time span stamp; measures the simulator, never feeds model time
	return time.Since(l.origin).Nanoseconds()
}

// add keeps sp and returns its index, or -1 once the log is full.
func (l *spanLog) add(sp span) int32 {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, sp)
	return int32(len(l.spans) - 1)
}

// merge moves o's spans into l on thread tid.
func (l *spanLog) merge(o *spanLog, tid int32) {
	for _, sp := range o.spans {
		sp.tid = tid
		l.add(sp)
	}
	l.dropped += o.dropped
}

// begin opens a span and returns its index (-1 on a nil or full log).
func (l *spanLog) begin(name, layer string, parent int32) int32 {
	if l == nil {
		return -1
	}
	t := l.now()
	return l.add(span{name: name, layer: layer, start: t, end: t, parent: parent, run: l.run})
}

// end closes span i.
func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = l.now()
}

// eventTracer is the SetTrace hook of one group of engines that run
// one after another. Each engine event opens a span that the next hook
// call closes, so an event's host time is the interval from its hook
// call to the next one, charged to the layer that named it. Engines
// that run in parallel (rack shards) get a tracer each, and tracers
// share nothing until they are absorbed after the run.
type eventTracer struct {
	log      *spanLog // private log; merged into the run's log after Run
	parent   int32
	tid      int32
	layers   map[string]string // every event name seen -> its layer
	cur      string            // layer of the running event, "" before the first
	curStart int64
	open     int32            // index of the running event's span, -1 if not kept
	counts   map[string]int64 // events per layer
	nanos    map[string]int64 // host ns per layer
}

func newEventTracer(origin time.Time, run, parent, tid int32) *eventTracer {
	return &eventTracer{
		log:    &spanLog{origin: origin, run: run},
		parent: parent, tid: tid, open: -1,
		layers: map[string]string{},
		counts: map[string]int64{},
		nanos:  map[string]int64{},
	}
}

// install hooks the tracer onto eng.
func (t *eventTracer) install(eng *sim.Engine) { eng.SetTrace(t.hook) }

func (t *eventTracer) hook(_ sim.Time, name string) {
	now := t.log.now()
	t.closeOpen(now)
	layer, ok := t.layers[name]
	if !ok {
		layer = eventLayer(name)
		if layer == "" {
			layer = "other"
		}
		t.layers[name] = layer
	}
	t.counts[layer]++
	t.cur, t.curStart = layer, now
	t.open = t.log.add(span{name: name, layer: layer, start: now, end: now, parent: t.parent, run: t.log.run, tid: t.tid})
}

func (t *eventTracer) closeOpen(now int64) {
	if t.cur == "" {
		return
	}
	t.nanos[t.cur] += now - t.curStart
	if t.open >= 0 {
		t.log.spans[t.open].end = now
	}
	t.cur, t.open = "", -1
}

// finish closes the last event span at the end of the run.
func (t *eventTracer) finish() { t.closeOpen(t.log.now()) }

// ledger accumulates the traced runs' per-layer event counts and host
// time across every engine they drove.
type ledger struct {
	counts map[string]int64
	nanos  map[string]int64
	names  map[string]bool
}

func newLedger() *ledger {
	return &ledger{counts: map[string]int64{}, nanos: map[string]int64{}, names: map[string]bool{}}
}

// absorb folds a finished tracer into the ledger and its spans into log.
func (lg *ledger) absorb(t *eventTracer, log *spanLog) {
	for k, v := range t.counts {
		lg.counts[k] += v
	}
	for k, v := range t.nanos {
		lg.nanos[k] += v
	}
	for k := range t.layers {
		lg.names[k] = true
	}
	if log != nil {
		log.merge(t.log, t.tid)
	}
}

// unmapped lists the event names no prefix in eventLayers claims.
func (lg *ledger) unmapped() []string {
	var out []string
	for n := range lg.names {
		if eventLayer(n) == "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// chromeTrace renders the log as Chrome trace-event JSON: one process
// per run, one thread per engine shard (tid 0 holds the benchmark's
// own calls), complete "X" events sorted by start.
func (l *spanLog) chromeTrace() ([]byte, error) {
	order := make([]int, len(l.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return l.spans[order[a]].start < l.spans[order[b]].start })
	type threadKey struct{ run, tid int32 }
	seen := map[threadKey]bool{}
	var threads []threadKey
	for _, s := range l.spans {
		k := threadKey{s.run, s.tid}
		if !seen[k] {
			seen[k] = true
			threads = append(threads, k)
		}
	}
	var b bytes.Buffer
	b.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, format, args...)
	}
	for _, k := range threads {
		name := "benchmark"
		if k.tid > 0 {
			name = fmt.Sprintf("engine %d", k.tid-1)
		}
		emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, k.run, k.tid, name)
	}
	emit(`{"name":"spans_dropped","ph":"M","pid":0,"tid":0,"args":{"count":%d,"cap":%d}}`, l.dropped, maxSpans)
	for _, i := range order {
		s := l.spans[i]
		name, err := json.Marshal(s.name)
		if err != nil {
			return nil, err
		}
		emit(`{"name":%s,"cat":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"run":%d}}`,
			name, s.layer, s.run, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.run)
	}
	b.WriteString("\n]}\n")
	return b.Bytes(), nil
}

// writeTrace validates the log's Chrome trace and writes it, with the
// per-layer table, under dir.
func writeTrace(dir, stem string, l *spanLog, table string) error {
	data, err := l.chromeTrace()
	if err != nil {
		return err
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".trace.json"), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".layers.txt"), []byte(table), 0o644)
}

// simSpanLayers maps telemetry histogram layers to the benchmark's
// layers for <layer>.sim_us_per_op. Every recorder span also feeds a
// histogram, and pcie and seg record only histograms, so the public
// histogram dump covers both. The telemetry plane records no
// transport-layer spans (transport time sits inside rpc.client).
var simSpanLayers = []struct{ prefix, layer string }{
	{"net", "netsim"},
	{"rpc.", "rpc"},
	{"wfq", "fabric"},
	{"stream", "fabric"},
	{"fabric", "fabric"},
	{"nvme.", "nvme"},
	{"pcie", "pcie"},
	{"seg", "seg"},
}

// simLayerNames are the layers reported as <layer>.sim_us_per_op.
var simLayerNames = []string{"netsim", "rpc", "fabric", "nvme", "pcie", "seg"}

// simSpanMicros sums recorded simulated time per layer, in µs, from
// the recorder's histogram dump (count × mean per histogram row).
func simSpanMicros(rec *telemetry.Recorder) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(rec.HistogramDump(), "\n") {
		if strings.HasPrefix(line, "== counters") {
			break
		}
		f := strings.Fields(line)
		if len(f) < 10 {
			continue
		}
		n, err1 := strconv.ParseInt(f[len(f)-7], 10, 64)
		mean, err2 := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err1 != nil || err2 != nil {
			continue // header and rule lines
		}
		for _, m := range simSpanLayers {
			if strings.HasPrefix(f[1], m.prefix) {
				out[m.layer] += float64(n) * float64(mean) / 1e6
				break
			}
		}
	}
	return out
}
