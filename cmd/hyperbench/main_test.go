package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"

	"hyperion/internal/bench"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// smallScenarios builds each engine-owning workload at a small size:
// a 4-box rack, 64 KV ops, and the busiest E18 cell (16 tenants, 2 ms
// leases, 5 % evictions), which exercises every event kind its grid
// has.
func smallScenarios(t *testing.T, l *spanLog) map[string]scenario {
	t.Helper()
	cfg := rackConfig(nil)
	cfg.Boxes, cfg.ClientsPerBox = 4, 200
	kv, err := buildKV(1, nil, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range kv.(*kvScenario).calls {
		c.left = 4
	}
	cl := sim.NewCluster(1, 1, tenantLookahead)
	cell, err := buildTenantCell(cl.Shard(0).Engine(), 1, 0, 16, 2*sim.Millisecond, 0.05, nil, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]scenario{
		"rack_read":    newRack(cfg, 1, nil, l),
		"kv_write":     kv,
		"tenant_churn": &tenantScenario{cl: cl, cells: []*tenantCell{cell}, logs: []*spanLog{nil}},
	}
}

// TestEventNameCoverage fails when an engine-owning workload executes
// an event that no entry of eventLayers claims, so a renamed event
// cannot drift silently into "other". It also checks the traced run's
// Chrome trace validates.
func TestEventNameCoverage(t *testing.T) {
	for name, sc := range smallScenarios(t, nil) {
		l := newSpanLog()
		run := l.begin("run", "driver", -1)
		lg := newLedger()
		var tracers []*eventTracer
		for i, group := range sc.engines() {
			tr := newEventTracer(l.origin, 0, run, int32(i+1))
			for _, eng := range group {
				tr.install(eng)
			}
			tracers = append(tracers, tr)
		}
		sc.run(l, run)
		l.end(run)
		for _, tr := range tracers {
			tr.finish()
			lg.absorb(tr, l)
		}
		if _, err := sc.result(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(lg.names) == 0 {
			t.Errorf("%s: no engine events seen", name)
		}
		if un := lg.unmapped(); len(un) > 0 {
			t.Errorf("%s: events no layer claims: %v", name, un)
		}
		data, err := l.chromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateChromeTrace(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestArmedRunsMatch pins that arming the telemetry recorder leaves
// every simulated output unchanged, so the traced pass measures the
// same runs. (Traced invocations check this on every workload too.)
func TestArmedRunsMatch(t *testing.T) {
	w, _ := workloadByName("kv_write")
	plain, _ := runOnce(w, 2, nil, nil)
	armed, _ := runOnce(w, 2, telemetry.NewRecorder(w.name), nil)
	if plain.err != nil || armed.err != nil {
		t.Fatalf("%v / %v", plain.err, armed.err)
	}
	if plain.out.fingerprint != armed.out.fingerprint {
		t.Errorf("armed run differs:\n%s\nvs\n%s", armed.out.fingerprint, plain.out.fingerprint)
	}
}

// TestPaperTableCheck pins that a table whose hash differs from the
// golden one fails the run at seed 1.
func TestPaperTableCheck(t *testing.T) {
	e, _ := bench.ByName("E1")
	s := &paperScenario{seed: bench.DefaultSeed, exps: []bench.Experiment{e}}
	s.run(nil, -1)
	if _, err := s.result(); err != nil {
		t.Fatalf("golden E1: %v", err)
	}
	s.results[0].Table.AddRow("tampered")
	o, err := s.result()
	if err == nil || o.wrong != 1 || o.completed != 0 {
		t.Fatalf("tampered E1: err %v, wrong %d, completed %d", err, o.wrong, o.completed)
	}
}

// TestCheckerFlagsDrift pins that a run whose outputs differ from the
// first run at the seed fails, and fails every op it attempted.
func TestCheckerFlagsDrift(t *testing.T) {
	var c checker
	c.check(&rep{out: outcome{attempted: 10, fingerprint: "a"}})
	c.check(&rep{out: outcome{attempted: 10, fingerprint: "b"}})
	c.check(&rep{out: outcome{attempted: 10, fingerprint: "a"}, err: errors.New("broken")})
	if c.ok() || len(c.errs) != 2 || c.attempted != 30 || c.failed != 20 {
		t.Fatalf("checker: ok %v errs %d attempted %d failed %d", c.ok(), len(c.errs), c.attempted, c.failed)
	}
}

// TestGoldenMatchesReport keeps the embedded seed-1 table hashes in
// step with the committed report they were copied from.
func TestGoldenMatchesReport(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pr10.json"))
	if err != nil {
		t.Skip("BENCH_pr10.json not present:", err)
	}
	var rep struct {
		Results []struct {
			ID     string `json:"id"`
			SHA256 string `json:"table_sha256"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, r := range rep.Results {
		if want, ok := goldenSHA256[r.ID]; ok {
			seen++
			if want != r.SHA256 {
				t.Errorf("%s: embedded %s, report %s", r.ID, want, r.SHA256)
			}
		}
	}
	if seen != len(paperIDs) || len(goldenSHA256) != len(paperIDs) {
		t.Errorf("report covers %d of %d tables", seen, len(paperIDs))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metric lists
// identical to what the command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	type jm struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var cfg struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w.name || cfg.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, cfg.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jm, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i] != (jm{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, e2eMetrics)
	check("per_layer", cfg.PerLayer, layerMetrics())
}

func TestFrameLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "hyperion/internal/nvme.(*Device).readStoreInto", "main.main"}, "nvme"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "hyperion/internal/nvme.(*Device).readStore"}, "goruntime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "goruntime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "hyperion/internal/rack.(*box).reply"}, "goruntime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "goruntime.other"},
		{[]string{"sort.insertionSort", "hyperion/internal/storage/kvssd.(*KV).Get"}, "storage"},
		{[]string{"hyperion/internal/ebpf/gofront.(*compiler).expr"}, "gofront"},
		{[]string{"hyperion/internal/ebpf.(*VM).Run"}, "ebpf"},
		{[]string{"hyperion/internal/apps/lb.(*LB).Steer"}, "apps"},
		{[]string{"hyperion/internal/sim.(*heap)[go.shape.int].push"}, "sim"},
		{[]string{"hyperion/internal/energy.Model"}, "other"},
		{[]string{"main.(*kvCaller).next", "hyperion/internal/sim.(*Engine).Step"}, "driver"},
		{[]string{"crypto/sha256.block"}, "other"},
	} {
		if got := frameLayer(tc.frames); got != tc.want {
			t.Errorf("frameLayer(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

//go:noinline
func spin(n int) (x uint64) {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + uint64(i)
	}
	return x
}

// TestCPUShares profiles this process and decodes the result.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("profiler busy:", err)
	}
	start := wallNow()
	for since(start) < 0.3 {
		spin(1 << 20)
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 || shares["driver"] < 0.5 {
		t.Errorf("shares %v (sum %v, %d samples)", shares, sum, samples)
	}
}
