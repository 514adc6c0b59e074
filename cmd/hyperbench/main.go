// Command hyperbench is the repository's benchmark. It runs one named
// workload for a fixed host-time window, checks every run's simulated
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer ledger) as one JSON object on the last line of stdout.
//
//	go run . -workload rack_read -seed 1 -seconds 20 -trace 0
//
// It is harness code: it builds each scenario through the layers'
// public APIs and measures them from outside — timing its own calls,
// hooking engine events with sim.Engine.SetTrace, reading public
// counters, and profiling its own process. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// metric is one reported figure's name, unit and direction.
type metric struct{ name, unit, better string }

// e2eMetrics are printed with -trace 0, for every workload.
var e2eMetrics = []metric{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"ops_per_host_s", "ops/s", "higher"},
	{"events_per_host_s", "events/s", "higher"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_p99_us", "sim_us", "lower"},
	{"sim_ops_per_sim_s", "ops/sim-s", "higher"},
}

// layerMetrics are printed with -trace 1, for every workload; a metric
// a workload does not exercise reads 0.
func layerMetrics() []metric {
	var out []metric
	for _, l := range layerNames {
		out = append(out, metric{l + ".cpu_share", "share", "lower"})
	}
	for _, l := range eventLayerNames {
		out = append(out,
			metric{l + ".events_per_op", "events/op", "lower"},
			metric{l + ".event_us_per_op", "us/op", "lower"})
	}
	out = append(out,
		metric{"nvme.read_blocks_per_op", "blocks/op", "lower"},
		metric{"nvme.write_blocks_per_op", "blocks/op", "lower"},
		metric{"pcie.dma_bytes_per_op", "B/op", "lower"},
		metric{"seg.reads_per_op", "reads/op", "lower"},
		metric{"seg.writes_per_op", "writes/op", "lower"},
		metric{"seg.promote_ratio", "ratio", "lower"},
		metric{"seg.dev_reads_per_op", "reads/op", "lower"},
		metric{"seg.dev_writes_per_op", "writes/op", "lower"},
		metric{"transport.frames_per_op", "frames/op", "lower"},
		metric{"transport.retransmit_ratio", "ratio", "lower"},
		metric{"sim.events_per_window", "events/window", "higher"},
		metric{"sim.stall_share", "share", "lower"},
		metric{"fabric.reconfigs", "count", "lower"},
		metric{"fabric.evictions", "count", "lower"},
		metric{"tenant.admit_ratio", "ratio", "higher"},
		metric{"tenant.accept_ratio", "ratio", "higher"},
		metric{"tenant.preempts", "count", "lower"},
		metric{"rack.new_s", "s", "lower"},
		metric{"cluster.new_s", "s", "lower"},
		metric{"storage.preload_s", "s", "lower"},
		metric{"gofront.image_compile_s", "s", "lower"},
		metric{"rpc.issue_ns", "ns", "lower"},
		metric{"tenant.submit_ns", "ns", "lower"},
		metric{"tenant.admit_us", "us", "lower"},
	)
	for _, id := range paperIDs {
		out = append(out, metric{"exp." + id + ".run_s", "s", "lower"})
	}
	for _, l := range simLayerNames {
		out = append(out, metric{l + ".sim_us_per_op", "sim_us/op", "lower"})
	}
	return append(out,
		metric{"failed_ops_ratio", "ratio", "lower"},
		metric{"bench.trace_overhead", "ratio", "lower"})
}

// report is the JSON object on the last line of stdout.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rep is one run: its host-side cost and its checked outcome.
type rep struct {
	setupS, runS       float64
	allocBytes, allocs uint64 // heap allocated during the run phase
	out                outcome
	err                error
}

// checker keeps the first run's fingerprint and the invocation's
// pass/fail tally: every run at one seed must reproduce it exactly.
type checker struct {
	ref       string
	attempted int64
	failed    int64
	errs      []string
}

func (c *checker) check(r *rep) {
	err := r.err
	if err == nil {
		if c.ref == "" {
			c.ref = r.out.fingerprint
		} else if r.out.fingerprint != c.ref {
			err = fmt.Errorf("outputs differ from the first run at this seed:\n%s\nvs\n%s", r.out.fingerprint, c.ref)
		}
	}
	if err != nil {
		// A run that fails its check fails every op, and at least one
		// (a panic can end a run before it counts any).
		n := max(r.out.attempted, 1)
		c.attempted += n
		c.failed += n
		c.errs = append(c.errs, err.Error())
		return
	}
	c.attempted += r.out.attempted
	c.failed += r.out.wrong
}

func (c *checker) ok() bool { return len(c.errs) == 0 }

func wallNow() time.Time {
	//hyperlint:allow(nodeterm) harness-side host timing of the simulator; never feeds model time
	return time.Now()
}

func since(t time.Time) float64 {
	//hyperlint:allow(nodeterm) harness-side host timing of the simulator; never feeds model time
	return time.Since(t).Seconds()
}

// setupFloor is the least host time, in seconds, a run spends setting
// up: a build faster than this is repeated until the builds add up to
// it, the median build time is reported, and the last build runs. Only
// paper_tables' experiment lookup is that fast.
const setupFloor = 0.01

// runOnce builds and runs one scenario. With a span log, an event
// tracer is installed on each group of the scenario's engines before
// the run, and the tracers are returned finished. A panic in the
// layers fails the run instead of the process, so it is reported with
// the run's other results. (E16 panics at some seeds.)
func runOnce(w workload, seed uint64, rec *telemetry.Recorder, l *spanLog) (r rep, tracers []*eventTracer) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	var m0, m1 runtime.MemStats
	var sc scenario
	var err error
	var setups []float64
	repeat := rec == nil && l == nil // traced runs build once: their setup time is not reported
	for total := 0.0; err == nil && (len(setups) == 0 || (repeat && total < setupFloor)); {
		t0 := wallNow()
		setup := l.begin("setup", "driver", -1)
		sc, err = w.build(seed, rec, l)
		l.end(setup)
		setups = append(setups, since(t0))
		total += setups[len(setups)-1]
	}
	r.setupS = median(setups)
	if err != nil {
		r.err = fmt.Errorf("setup: %w", err)
		return r, nil
	}
	runSpan := l.begin("run", "driver", -1)
	if l != nil {
		for i, group := range sc.engines() {
			t := newEventTracer(l.origin, l.run, runSpan, int32(i+1))
			for _, eng := range group {
				t.install(eng)
			}
			tracers = append(tracers, t)
		}
	}
	runtime.ReadMemStats(&m0)
	t1 := wallNow()
	sc.run(l, runSpan)
	for _, t := range tracers {
		t.finish()
	}
	r.runS = since(t1)
	runtime.ReadMemStats(&m1)
	l.end(runSpan)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.allocs = m1.Mallocs - m0.Mallocs
	r.out, r.err = sc.result()
	return r, tracers
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeReps runs scenarios until window seconds have passed (at least
// one) and returns them; every run is checked.
func timeReps(w workload, seed uint64, window float64, c *checker) []rep {
	var reps []rep
	start := wallNow()
	for len(reps) == 0 || since(start) < window {
		r, _ := runOnce(w, seed, nil, nil)
		c.check(&r)
		reps = append(reps, r)
	}
	return reps
}

// endToEnd times the workload with tracing off, running it until the
// window closes and reporting medians over the runs. There is no
// warm-up run: the median discards the first run's cold start.
func endToEnd(w workload, seed uint64, seconds float64, c *checker) (map[string]value, string) {
	reps := timeReps(w, seed, seconds, c)
	var setup, run, opsRate, evRate, bytesOp, allocsOp []float64
	for _, r := range reps {
		ops := r.out.completed
		setup = append(setup, r.setupS)
		run = append(run, r.runS)
		opsRate = append(opsRate, ratio(float64(ops), r.runS))
		evRate = append(evRate, ratio(float64(r.out.steps), r.runS))
		bytesOp = append(bytesOp, ratio(float64(r.allocBytes), float64(ops)))
		allocsOp = append(allocsOp, ratio(float64(r.allocs), float64(ops)))
	}
	o := reps[0].out
	m := map[string]value{
		"setup_s":            {median(setup), "s"},
		"run_s":              {median(run), "s"},
		"ops_per_host_s":     {median(opsRate), "ops/s"},
		"events_per_host_s":  {median(evRate), "events/s"},
		"alloc_bytes_per_op": {median(bytesOp), "B/op"},
		"allocs_per_op":      {median(allocsOp), "allocs/op"},
		"peak_rss_mb":        {peakRSSMiB(), "MiB"},
		"sim_p99_us":         {float64(o.lat.Percentile(99)) / float64(sim.Microsecond), "sim_us"},
		"sim_ops_per_sim_s":  {ratio(float64(o.completed), o.simTime.Seconds()), "ops/sim-s"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d: %d timed runs, %d ops and %d events per run, %d latency samples\n",
		w.name, seed, len(reps), o.completed, o.steps, o.lat.Count())
	for _, mt := range e2eMetrics {
		fmt.Fprintf(&b, "  %-20s %14.6g %s\n", mt.name, m[mt.name].Value, mt.unit)
	}
	return m, b.String()
}

// traced produces the per-layer ledger from separate runs, each phase
// a third of the window: untraced runs (the trace-overhead baseline and
// the counters), CPU-profiled runs, and hook-traced runs with their
// spans kept; then one run with the telemetry recorder armed. It writes
// the first traced run's Chrome trace and the per-layer table to outDir.
func traced(w workload, seed uint64, seconds float64, outDir string, c *checker) (map[string]value, string, error) {
	share := seconds / 3

	// Untraced runs: the baseline for bench.trace_overhead, and the
	// public counters in the same shard layout as the end-to-end runs.
	plain := timeReps(w, seed, share, c)
	var plainRun []float64
	for _, r := range plain {
		plainRun = append(plainRun, r.runS)
	}
	o := plain[len(plain)-1].out

	// CPU profile of this process over whole runs.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, "", fmt.Errorf("cpu profile: %w", err)
	}
	timeReps(w, seed, share, c)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, "", err
	}

	// Hook-traced runs: engine-event ledger and timed calls. The first
	// run's spans are written out as the Chrome trace.
	lg := newLedger()
	var keep *spanLog
	var tracedRun []float64
	var ops int64
	callS, callN := map[string]float64{}, map[string]float64{} // per span name: total s, count
	start := wallNow()
	for runs := int32(0); runs == 0 || since(start) < share; runs++ {
		l := newSpanLog()
		l.run = runs
		r, tracers := runOnce(w, seed, nil, l)
		c.check(&r)
		for _, t := range tracers {
			lg.absorb(t, l)
		}
		tracedRun = append(tracedRun, r.runS)
		ops += r.out.completed
		for _, sp := range l.spans {
			callS[sp.name] += float64(sp.end-sp.start) / 1e9
			callN[sp.name]++
		}
		if keep == nil {
			keep = l
		}
	}
	runs := float64(len(tracedRun))

	// Telemetry-armed run: simulated span time per layer.
	rec := telemetry.NewRecorder(w.name)
	armed, _ := runOnce(w, seed, rec, nil)
	c.check(&armed)
	simUs := simSpanMicros(rec)

	m := map[string]value{}
	for _, mt := range layerMetrics() {
		m[mt.name] = value{0, mt.unit}
	}
	set := func(name string, v float64) {
		mv, ok := m[name]
		if !ok {
			panic("hyperbench: unlisted metric " + name)
		}
		mv.Value = v
		m[name] = mv
	}
	for l, v := range shares {
		set(l+".cpu_share", v)
	}
	for _, l := range eventLayerNames {
		set(l+".events_per_op", ratio(float64(lg.counts[l]), float64(ops)))
		set(l+".event_us_per_op", ratio(float64(lg.nanos[l])/1e3, float64(ops)))
	}
	for k, v := range o.counters {
		set(k, v)
	}
	set("rack.new_s", callS["rack.New"]/runs)
	set("cluster.new_s", callS["cluster.New"]/runs)
	set("storage.preload_s", callS["kvssd.preload"]/runs)
	set("gofront.image_compile_s", callS["fail2ban.NewPipeline"]/runs)
	set("rpc.issue_ns", 1e9*ratio(callS["Router.Put"]+callS["Router.Get"], callN["Router.Put"]+callN["Router.Get"]))
	set("tenant.submit_ns", 1e9*ratio(callS["Controller.Submit"], callN["Controller.Submit"]))
	set("tenant.admit_us", 1e6*ratio(callS["Controller.Admit"], callN["Controller.Admit"]))
	for _, id := range paperIDs {
		set("exp."+id+".run_s", callS["exp."+id]/runs)
	}
	for _, l := range simLayerNames {
		set(l+".sim_us_per_op", ratio(simUs[l], float64(o.completed)))
	}
	set("failed_ops_ratio", ratio(float64(o.simFailed), float64(o.attempted)))
	set("bench.trace_overhead", ratio(median(tracedRun), median(plainRun)))

	table := layerTable(w, seed, m, samples, lg)
	table += fmt.Sprintf("trace: %d spans kept, %d past the %d-span cap dropped\n", len(keep.spans), keep.dropped, maxSpans)
	if un := lg.unmapped(); len(un) > 0 {
		table += "events no layer claims (counted as other): " + strings.Join(un, ", ") + "\n"
	}
	stem := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := writeTrace(outDir, stem, keep, table); err != nil {
		return nil, "", err
	}
	return m, table, nil
}

// layerTable renders the per-layer ledger as aligned text.
func layerTable(w workload, seed uint64, m map[string]value, samples int64, lg *ledger) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer ledger: workload %s seed %d (%d CPU samples)\n", w.name, seed, samples)
	fmt.Fprintf(&b, "  %-18s %9s %12s %14s %14s\n", "layer", "cpu_share", "events/op", "event_us/op", "sim_us/op")
	for _, l := range layerNames {
		ev, evUs, simUs := "-", "-", "-"
		if v, ok := m[l+".events_per_op"]; ok {
			ev = fmt.Sprintf("%.3f", v.Value)
			evUs = fmt.Sprintf("%.4f", m[l+".event_us_per_op"].Value)
		}
		if v, ok := m[l+".sim_us_per_op"]; ok {
			simUs = fmt.Sprintf("%.4f", v.Value)
		}
		fmt.Fprintf(&b, "  %-18s %9.4f %12s %14s %14s\n", l, m[l+".cpu_share"].Value, ev, evUs, simUs)
	}
	b.WriteString("other per-layer metrics:\n")
	for _, mt := range layerMetrics() {
		if strings.HasSuffix(mt.name, ".cpu_share") || strings.HasSuffix(mt.name, ".events_per_op") ||
			strings.HasSuffix(mt.name, ".event_us_per_op") || strings.HasSuffix(mt.name, ".sim_us_per_op") {
			continue
		}
		fmt.Fprintf(&b, "  %-28s %14.6g %s\n", mt.name, m[mt.name].Value, mt.unit)
	}
	return b.String()
}

func main() {
	name := flag.String("workload", "", "workload: rack_read, kv_write, tenant_churn or paper_tables")
	seed := flag.Uint64("seed", 1, "workload seed (1 is the golden seed; 2 is the held-out seed)")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	outDir := flag.String("out", ".bench_build/hyperbench-traces", "directory for the traced run's Chrome trace and layer table")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hyperbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	var c checker
	var m map[string]value
	var text string
	if *traceFlag == 0 {
		m, text = endToEnd(w, *seed, *seconds, &c)
	} else {
		var err error
		if m, text, err = traced(w, *seed, *seconds, *outDir, &c); err != nil {
			fmt.Fprintln(os.Stderr, "hyperbench:", err)
			os.Exit(1)
		}
	}
	fmt.Print(text)
	for _, e := range c.errs {
		fmt.Fprintln(os.Stderr, "hyperbench: output check failed:", e)
	}
	out, err := json.Marshal(report{Correct: c.ok(), Attempted: c.attempted, Failed: c.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyperbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !c.ok() {
		os.Exit(1)
	}
}
