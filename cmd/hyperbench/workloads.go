package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"

	"hyperion/internal/apps/fail2ban"
	"hyperion/internal/bench"
	"hyperion/internal/cluster"
	"hyperion/internal/fabric"
	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/rack"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/tenant"
	"hyperion/internal/trace"
	"hyperion/internal/transport"
)

// workload is one named batch the benchmark times. build constructs a
// fresh scenario at a seed; rec, when non-nil, arms the telemetry
// plane; l, when non-nil, records a span around every call into a
// layer.
type workload struct {
	name  string
	why   string
	build func(seed uint64, rec *telemetry.Recorder, l *spanLog) (scenario, error)
}

// scenario is one built workload, ready to run once.
type scenario interface {
	// engines are the simulation engines the benchmark owns (nil when
	// the layers build their own, as in paper_tables), grouped by the
	// goroutine that runs them: a group's engines run one after another,
	// different groups may run in parallel.
	engines() [][]*sim.Engine
	run(l *spanLog, parent int32)
	// result reads the outputs after run and checks them. A non-nil
	// error means an output broke a conservation or contract check.
	result() (outcome, error)
}

// outcome is one run's simulated output. Everything in it is a pure
// function of the seed.
type outcome struct {
	attempted int64 // simulated requests offered
	completed int64 // requests answered successfully
	simFailed int64 // requests refused, errored or never answered, as the model decided
	wrong     int64 // requests whose answer broke the model's contract
	steps     uint64
	simTime   sim.Duration
	lat       sim.LatencyRecorder
	counters  map[string]float64 // per-layer counters, already per op where named so
	// fingerprint renders every deterministic output; runs at one
	// seed must agree on it exactly.
	fingerprint string
}

var workloads = []workload{
	{"rack_read", "E17's middle row: the only workload that reaches flash and the only one on the sharded PDES kernel; reads dominate", buildRack},
	{"kv_write", "closed-loop replicated KV over netsim, transport, rpc and core.DPU: the write-heavy twin of rack_read on seg and kvssd", buildKV},
	{"tenant_churn", "E18's grid driven directly: the only workload on the WFQ arbiter, the tenant control plane and the gofront to ehdl compile chain", buildTenants},
	{"paper_tables", "every paper table except E17 and E18, as a reproduction user runs them; the only workload on seg translation, lb, lsm, colfmt, corfu, nvmeof and the eBPF VM", buildPaperTables},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix derives a per-index generator seed from the workload seed.
func mix(seed uint64, idx int) uint64 { return seed ^ (0x9e3779b97f4a7c15 * (uint64(idx) + 1)) }

// latencyPrint renders the percentiles the fingerprint pins.
func latencyPrint(l *sim.LatencyRecorder) string {
	return fmt.Sprintf("n=%d p50=%d p99=%d p999=%d", l.Count(), l.Percentile(50), l.Percentile(99), l.Percentile(99.9))
}

// ratio is num/den, or 0 when den is 0 (a run that failed before it
// counted anything).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---- rack_read ------------------------------------------------------

// shards is the cluster shard count for rack_read and tenant_churn:
// two, or one on a one-CPU host. E17's and E18's tables are
// shard-count invariant, so this sets only the layout. Runs with a
// telemetry recorder need one shard (a recorder is single-threaded).
func shards(rec *telemetry.Recorder) int {
	if rec != nil || runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

type rackScenario struct{ r *rack.Rack }

// buildRack builds E17's 16-box row: 4 000 open-loop Poisson clients
// per box at 300 ops/s over a 2 ms horizon, 2 µs spine propagation,
// 3 replicas, 512 keys/box × 256 B; rack fixes the mix at 50 % raw
// NVMe reads, 30 % KV gets and 20 % replicated puts.
func buildRack(seed uint64, rec *telemetry.Recorder, l *spanLog) (scenario, error) {
	return newRack(rackConfig(rec), seed, rec, l), nil
}

func rackConfig(rec *telemetry.Recorder) rack.Config {
	cfg := rack.DefaultConfig()
	cfg.Boxes = 16
	cfg.ClientsPerBox = 4000
	cfg.RatePerClient = 300
	cfg.Horizon = 2 * sim.Millisecond
	cfg.Net.PropDelay = 2 * sim.Microsecond
	cfg.Replicas = 3
	cfg.KeysPerBox = 512
	cfg.ValueBytes = 256
	cfg.Shards = shards(rec)
	return cfg
}

func newRack(cfg rack.Config, seed uint64, rec *telemetry.Recorder, l *spanLog) *rackScenario {
	s := &rackScenario{}
	i := l.begin("rack.New", "rack", -1)
	s.r = rack.New(cfg, seed, rec)
	l.end(i)
	return s
}

// shardEngines groups a cluster's engines one per shard: shards run
// in parallel.
func shardEngines(cl *sim.Cluster) [][]*sim.Engine {
	out := make([][]*sim.Engine, cl.Shards())
	for i := range out {
		out[i] = []*sim.Engine{cl.Shard(i).Engine()}
	}
	return out
}

func (s *rackScenario) engines() [][]*sim.Engine { return shardEngines(s.r.Cluster()) }

func (s *rackScenario) run(l *spanLog, parent int32) {
	i := l.begin("rack.Run", "rack", parent)
	s.r.Run()
	l.end(i)
}

func (s *rackScenario) result() (outcome, error) {
	t := s.r.Totals()
	cl := s.r.Cluster()
	o := outcome{
		attempted: t.Issued,
		completed: t.OK,
		simFailed: t.Issued - t.OK,
		steps:     cl.Steps(),
		simTime:   cl.Now().Sub(sim.Time(0)),
		lat:       t.LatAll,
	}
	var busy, stall int64
	for _, st := range cl.Stats() {
		busy += st.BusyNs
		stall += st.StallNs
	}
	// rack keeps its devices private; Totals counts the raw NVMe reads
	// (one block each) its boxes served.
	o.counters = map[string]float64{
		"nvme.read_blocks_per_op": ratio(float64(t.Reads), float64(t.OK)),
		"sim.events_per_window":   ratio(float64(cl.Steps()), float64(cl.Windows())),
		"sim.stall_share":         ratio(float64(stall), float64(busy+stall)),
	}
	o.fingerprint = fmt.Sprintf("issued=%d ok=%d errs=%d reads=%d gets=%d puts=%d bytes=%d steps=%d %s",
		t.Issued, t.OK, t.Errs, t.Reads, t.Gets, t.Puts, t.BytesMoved, o.steps, latencyPrint(&t.LatAll))
	if t.Issued != t.OK+t.Errs {
		o.wrong = t.Issued
		return o, fmt.Errorf("rack: issued %d != ok %d + errs %d", t.Issued, t.OK, t.Errs)
	}
	return o, nil
}

// ---- kv_write -------------------------------------------------------

const (
	kvDPUs     = 4
	kvReplicas = 3
	kvKeys     = 4096
	kvValue    = 256
	kvCallers  = 16
	kvOps      = 16384 // per run, split evenly across the callers
)

type kvScenario struct {
	eng   *sim.Engine
	c     *cluster.Cluster
	rt    *cluster.Router
	keys  [][]byte
	calls []*kvCaller
	l     *spanLog
	run0  int32 // the run span, parent of per-call spans
	base  kvCounters

	lat                          sim.LatencyRecorder
	issued, ok, errs, wrong, ans int64
	puts, gets                   int64
}

// kvCaller is one closed-loop client: it issues its next op from the
// previous op's completion callback.
type kvCaller struct {
	s       *kvScenario
	rng     *sim.Rand
	left    int
	key     int
	t0      sim.Time
	val     []byte
	putDone func(error)
	getDone func([]byte, error)
}

// kvCounters snapshots the public per-device counters of every DPU.
type kvCounters struct {
	readBlocks, writeBlocks, dma, segReads, segWrites, promotes float64
	devReads, devWrites                                         float64
	frames, dataFrames, retransmits                             float64
}

func (s *kvScenario) counters() kvCounters {
	var k kvCounters
	for _, n := range s.c.Nodes {
		d := n.DPU
		for _, ssd := range d.SSDs {
			k.readBlocks += float64(ssd.Counters.Value("read_blocks"))
			k.writeBlocks += float64(ssd.Counters.Value("write_blocks"))
		}
		k.dma += float64(d.Root.Counters.Value("dma_bytes"))
		// KV-SSD reaches seg through the synchronous view, which keeps
		// its own counters beside the store's asynchronous-path ones.
		k.segReads += float64(d.Store.Counters.Value("reads") + d.View.Reads)
		k.segWrites += float64(d.Store.Counters.Value("writes") + d.View.Writes)
		k.promotes += float64(d.Store.Counters.Value("promotes"))
		// The view reads and writes flash-resident segments straight
		// through the device's synchronous path, which the device's
		// Counters (the queued-command path) do not see.
		k.devReads += float64(d.View.DevReads)
		k.devWrites += float64(d.View.DevWrites)
		for _, st := range []*transport.Stats{d.DataEP.Stats(), d.CtrlEP.Stats()} {
			k.frames += float64(st.DataFrames + st.CtrlFrames)
			k.dataFrames += float64(st.DataFrames)
			k.retransmits += float64(st.Retransmits)
		}
	}
	return k
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

// stampValue writes a value naming its key, so a get can check it read
// a value written for the key it asked for.
func stampValue(buf []byte, key int) {
	binary.LittleEndian.PutUint32(buf, uint32(key))
	for i := 4; i < len(buf); i++ {
		buf[i] = byte(key + i)
	}
}

// buildKV boots 4 DPUs with 3 replicas behind one router and preloads
// every key into its replicas' KV-SSDs, so every get hits.
func buildKV(seed uint64, rec *telemetry.Recorder, l *spanLog) (scenario, error) {
	s := &kvScenario{eng: sim.NewEngine(seed), l: l}
	net := netsim.New(s.eng, netsim.DefaultConfig())
	var err error
	i := l.begin("cluster.New", "cluster", -1)
	s.c, err = cluster.New(s.eng, net, kvDPUs, kvReplicas)
	l.end(i)
	if err != nil {
		return nil, err
	}
	if s.rt, err = cluster.NewRouter(s.c, "client"); err != nil {
		return nil, err
	}
	if rec != nil {
		net.SetRecorder(rec)
		s.c.SetRecorder(rec)
		s.rt.SetRecorder(rec)
	}
	s.keys = make([][]byte, kvKeys)
	val := make([]byte, kvValue)
	i = l.begin("kvssd.preload", "storage", -1)
	for k := range s.keys {
		s.keys[k] = kvKey(k)
		stampValue(val, k)
		for _, n := range s.c.ReplicaSet(s.keys[k]) {
			if err := s.c.Nodes[n].KV.Put(s.keys[k], val); err != nil {
				return nil, fmt.Errorf("preload %s: %w", s.keys[k], err)
			}
		}
	}
	// The preload happens before time zero: drop the modelled latency
	// it accrued on each DPU's synchronous view, which the first
	// request to complete on that view would otherwise be charged.
	for _, n := range s.c.Nodes {
		n.DPU.View.TakeCost()
	}
	l.end(i)
	for c := 0; c < kvCallers; c++ {
		kc := &kvCaller{s: s, rng: sim.NewRand(mix(seed, c)), left: kvOps / kvCallers, val: make([]byte, kvValue)}
		kc.putDone = kc.onPut
		kc.getDone = kc.onGet
		s.calls = append(s.calls, kc)
	}
	s.base = s.counters()
	return s, nil
}

func (s *kvScenario) engines() [][]*sim.Engine { return [][]*sim.Engine{{s.eng}} }

func (s *kvScenario) run(l *spanLog, parent int32) {
	s.run0 = l.begin("engine.Run", "sim", parent)
	for _, kc := range s.calls {
		kc.next()
	}
	s.eng.Run()
	l.end(s.run0)
}

// next issues the caller's next op: half puts, half gets, uniform keys.
func (kc *kvCaller) next() {
	if kc.left == 0 {
		return
	}
	kc.left--
	s := kc.s
	kc.key = kc.rng.Intn(kvKeys)
	kc.t0 = s.eng.Now()
	s.issued++
	if kc.rng.Intn(2) == 0 {
		s.puts++
		stampValue(kc.val, kc.key)
		i := s.l.begin("Router.Put", "rpc", s.run0)
		s.rt.Put(s.keys[kc.key], kc.val, kc.putDone)
		s.l.end(i)
		return
	}
	s.gets++
	i := s.l.begin("Router.Get", "rpc", s.run0)
	s.rt.Get(s.keys[kc.key], kc.getDone)
	s.l.end(i)
}

func (kc *kvCaller) finish(err error) {
	s := kc.s
	s.ans++
	if err != nil {
		s.errs++
	} else {
		s.ok++
		s.lat.Record(s.eng.Now().Sub(kc.t0))
	}
	kc.next()
}

func (s *kvScenario) unfinished() int {
	n := 0
	for _, kc := range s.calls {
		if kc.left > 0 {
			n++
		}
	}
	return n
}

func (kc *kvCaller) onPut(err error) { kc.finish(err) }

func (kc *kvCaller) onGet(val []byte, err error) {
	if err == nil && (len(val) != kvValue || int(binary.LittleEndian.Uint32(val)) != kc.key) {
		kc.s.wrong++
	}
	kc.finish(err)
}

func (s *kvScenario) result() (outcome, error) {
	k := s.counters()
	b := s.base
	o := outcome{
		attempted: s.issued,
		completed: s.ok,
		simFailed: s.issued - s.ok,
		wrong:     s.wrong + s.errs, // every key is preloaded and nothing is faulted
		steps:     s.eng.Steps(),
		simTime:   s.eng.Now().Sub(sim.Time(0)),
		lat:       s.lat,
	}
	o.counters = map[string]float64{
		"nvme.read_blocks_per_op":    ratio(k.readBlocks-b.readBlocks, float64(s.ok)),
		"nvme.write_blocks_per_op":   ratio(k.writeBlocks-b.writeBlocks, float64(s.ok)),
		"pcie.dma_bytes_per_op":      ratio(k.dma-b.dma, float64(s.ok)),
		"seg.reads_per_op":           ratio(k.segReads-b.segReads, float64(s.ok)),
		"seg.writes_per_op":          ratio(k.segWrites-b.segWrites, float64(s.ok)),
		"seg.promote_ratio":          ratio(k.promotes-b.promotes, k.segReads-b.segReads),
		"seg.dev_reads_per_op":       ratio(k.devReads-b.devReads, float64(s.ok)),
		"seg.dev_writes_per_op":      ratio(k.devWrites-b.devWrites, float64(s.ok)),
		"transport.frames_per_op":    ratio(k.frames-b.frames, float64(s.ok)),
		"transport.retransmit_ratio": ratio(k.retransmits-b.retransmits, k.dataFrames-b.dataFrames),
	}
	o.fingerprint = fmt.Sprintf("issued=%d puts=%d gets=%d ok=%d errs=%d wrong=%d steps=%d frames=%.0f %s",
		s.issued, s.puts, s.gets, s.ok, s.errs, s.wrong, o.steps, k.frames-b.frames, latencyPrint(&s.lat))
	switch {
	case s.ans != s.issued:
		o.wrong = s.issued
		return o, fmt.Errorf("kv: %d ops issued, %d answered", s.issued, s.ans)
	case s.unfinished() > 0:
		o.wrong = s.issued
		return o, fmt.Errorf("kv: %d callers stopped before their last op", s.unfinished())
	case o.wrong > 0:
		return o, fmt.Errorf("kv: %d errors and %d gets of the wrong key", s.errs, s.wrong)
	}
	return o, nil
}

// ---- tenant_churn ---------------------------------------------------

// E18's control-plane constants and tenant classes.
const (
	tenantAuthTag = "hyperion-tenant-key"
	tenantCap     = 14
	tenantHorizon = sim.Time(50 * sim.Millisecond)
	tenantChurnAt = sim.Time(30 * sim.Millisecond)
	tenantLateAt  = sim.Time(35 * sim.Millisecond)
)

const (
	classQuiet = iota
	classNoisy
	classEcho
	classScan
	classFilter
)

// tenantGrid is E18's sweep: tenant count × lease × eviction rate.
var (
	tenantCounts = []int{4, 10, 16}
	tenantLeases = []sim.Duration{0, 2 * sim.Millisecond}
	tenantRates  = []float64{0, 0.01, 0.05}
)

func tenantClass(i int) int {
	switch i {
	case 0:
		return classQuiet
	case 1:
		return classNoisy
	}
	return []int{classEcho, classScan, classFilter}[i%3]
}

func trafficShape(class int) (interval sim.Duration, burst, bytes int) {
	switch class {
	case classQuiet:
		return 100 * sim.Microsecond, 1, 64
	case classNoisy:
		return 50 * sim.Microsecond, 4, 64 << 10
	case classScan:
		return 100 * sim.Microsecond, 1, 4096
	default:
		return 100 * sim.Microsecond, 1, 128
	}
}

// tenantGrids is how many seeds' worth of E18's grid one run covers.
// A cell's host cost swings several-fold with its seed (the DRR spin
// depends on when evictions land), so one run averages over several
// grids, sized by work (cells × seeds) rather than by time.
const tenantGrids = 6

// tenantLookahead is E18's conservative window width; cells never
// communicate, so it only sets how often the shards meet at a barrier.
const tenantLookahead = 500 * sim.Microsecond

type tenantScenario struct {
	cl    *sim.Cluster
	cells []*tenantCell
	logs  []*spanLog // per-shard logs for calls made inside engine events
}

// tenantCell is one grid cell: its own fabric and controller on one
// shard engine, as E18 lays cells out.
type tenantCell struct {
	eng  *sim.Engine
	ctl  *tenant.Controller
	rnd  *sim.Rand
	l    *spanLog
	run0 int32
	free []*tenantReq

	lat                                         sim.LatencyRecorder
	attempted, accepted, refused, done, errored int64
}

// tenantReq carries one accepted request's submit time to its
// completion callback; instances cycle through the cell's free list.
type tenantReq struct {
	c  *tenantCell
	t0 sim.Time
	fn func(error)
}

func (r *tenantReq) resolve(err error) {
	c := r.c
	if err != nil {
		c.errored++
	} else {
		c.done++
		c.lat.Record(c.eng.Now().Sub(r.t0))
	}
	c.free = append(c.free, r)
}

func (c *tenantCell) getReq() *tenantReq {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		return r
	}
	r := &tenantReq{c: c}
	r.fn = r.resolve
	return r
}

// tenantSpec builds arrival i's spec; filter tenants compile their own
// fail2ban pipeline (Go source → eBPF → eHDL), timed as setup.
func tenantSpec(i int, l *spanLog) (tenant.Spec, error) {
	echo := func(name string, mib int64, depth int) *fabric.Bitstream {
		return &fabric.Bitstream{
			Name: name, SizeBytes: mib << 20,
			Uses:  fabric.Resources{LUTs: 30_000, FFs: 60_000, BRAM: 48, DSP: 24},
			Depth: depth, II: 1, AuthTag: tenantAuthTag,
			Process: func(in any) any { return in },
		}
	}
	switch tenantClass(i) {
	case classQuiet:
		return tenant.Spec{Name: "aa-quiet", Weight: 4, Image: echo("quiet", 1, 12),
			SLO: tenant.SLO{P99: 25 * sim.Microsecond, Goodput: 6000}}, nil
	case classNoisy:
		return tenant.Spec{Name: "ab-noisy", Weight: 1, Image: echo("noisy", 4, 24)}, nil
	case classEcho:
		return tenant.Spec{Name: fmt.Sprintf("t%02d-echo", i), Weight: 1 + i%4, Image: echo("echo", 2, 16),
			SLO: tenant.SLO{P99: 200 * sim.Microsecond, Goodput: 2000}}, nil
	case classScan:
		img := echo("scan", 4, 48)
		img.II = 2
		return tenant.Spec{Name: fmt.Sprintf("t%02d-scan", i), Weight: 1 + i%4, Image: img,
			SLO: tenant.SLO{P99: 500 * sim.Microsecond, Goodput: 1000}}, nil
	}
	sp := l.begin("fail2ban.NewPipeline", "gofront", -1)
	pipe, _, _, err := fail2ban.NewPipeline(fmt.Sprintf("f2b%02d", i), tenantAuthTag, 3)
	l.end(sp)
	if err != nil {
		return tenant.Spec{}, fmt.Errorf("fail2ban pipeline: %w", err)
	}
	return tenant.Spec{Name: fmt.Sprintf("t%02d-filter", i), Weight: 1 + i%4, Image: pipe.Bitstream(),
		SLO: tenant.SLO{P99: 500 * sim.Microsecond, Goodput: 1000}}, nil
}

// buildTenants builds tenantGrids copies of E18's grid, the first at
// the run's seed and the rest at seeds derived from it, spread over
// the shards of one cluster. Each cell has staggered arrivals,
// per-class open-loop traffic, every fourth tenant departing at 30 ms,
// a late arrival at 35 ms, and the fault plane's slot evictions where
// the cell's rate is non-zero.
func buildTenants(seed uint64, rec *telemetry.Recorder, l *spanLog) (scenario, error) {
	s := &tenantScenario{cl: sim.NewCluster(shards(rec), seed, tenantLookahead)}
	s.logs = make([]*spanLog, s.cl.Shards())
	if l != nil {
		for i := range s.logs {
			s.logs[i] = &spanLog{origin: l.origin, run: l.run}
		}
	}
	for g := 0; g < tenantGrids; g++ {
		gseed := seed + uint64(g)*0x9e3779b97f4a7c15
		idx := 0 // cell index within the grid: seeds its generators and fault plan
		for _, n := range tenantCounts {
			for _, lease := range tenantLeases {
				for _, rate := range tenantRates {
					// Grid positions differ in cost, so alternate which
					// shard takes the even ones, grid by grid.
					sh := (idx + g) % s.cl.Shards()
					c, err := buildTenantCell(s.cl.Shard(sh).Engine(), gseed, idx, n, lease, rate, rec, l, s.logs[sh])
					if err != nil {
						return nil, err
					}
					s.cells = append(s.cells, c)
					idx++
				}
			}
		}
	}
	return s, nil
}

// buildTenantCell builds one cell on eng. Setup calls are logged on l;
// calls made from engine events go to the cell's shard log.
func buildTenantCell(eng *sim.Engine, seed uint64, idx, n int, lease sim.Duration, rate float64, rec *telemetry.Recorder, l, shardLog *spanLog) (*tenantCell, error) {
	fab := fabric.New(eng, fabric.DefaultConfig(), tenantAuthTag)
	cfg := tenant.DefaultConfig()
	cfg.MaxTenants = tenantCap
	cfg.Lease = lease
	c := &tenantCell{eng: eng, ctl: tenant.New(eng, fab, cfg), rnd: sim.NewRand(mix(seed, idx)), l: shardLog}
	if rec != nil {
		c.ctl.SetRecorder(rec.Child(fmt.Sprintf("seed%x.cell%02d", seed, idx)))
	}
	c.ctl.SetHorizon(tenantHorizon)
	if rate > 0 {
		plan := fault.NewPlanIndexed(seed, "tenant", idx).Set(fault.Evict, rate)
		meanUp := sim.Duration(float64(100*sim.Microsecond) / rate)
		c.ctl.ArmEvictions(plan, tenantHorizon, meanUp, 500*sim.Microsecond)
	}
	for i := 0; i < n; i++ {
		spec, err := tenantSpec(i, l)
		if err != nil {
			return nil, err
		}
		departAt := sim.Time(0)
		if i%4 == 3 {
			departAt = tenantChurnAt
		}
		c.admit(sim.Time(0).Add(sim.Duration(i+1)*(300*sim.Microsecond)), spec, tenantClass(i), departAt)
	}
	late, err := tenantSpec(0, l)
	if err != nil {
		return nil, err
	}
	late.Name, late.Weight = "zz-late", 2
	late.SLO = tenant.SLO{P99: 200 * sim.Microsecond, Goodput: 1000}
	c.admit(tenantLateAt, late, classEcho, 0)
	return c, nil
}

// admit schedules one arrival and, once admitted, its traffic loop and
// optional departure. Rejections are the controller's business.
func (c *tenantCell) admit(at sim.Time, spec tenant.Spec, class int, departAt sim.Time) {
	interval, burst, bytes := trafficShape(class)
	tickName := driverEventPrefix + "tick:" + spec.Name
	departName := driverEventPrefix + "depart:" + spec.Name
	eng := c.eng
	eng.At(at, driverEventPrefix+"arrive:"+spec.Name, func() {
		i := c.l.begin("Controller.Admit", "tenant", c.run0)
		h, err := c.ctl.Admit(spec)
		c.l.end(i)
		if err != nil {
			return
		}
		if departAt > 0 {
			eng.At(departAt, departName, func() {
				if err := c.ctl.Depart(h.ID); err != nil {
					panic("hyperbench: depart: " + err.Error())
				}
			})
		}
		var tick func()
		tick = func() {
			if eng.Now() >= tenantHorizon || h.State == tenant.StateDeparted {
				return
			}
			for b := 0; b < burst; b++ {
				var payload any
				if class == classFilter {
					payload = trace.Packet{
						SrcIP: uint32(1 + c.rnd.Intn(64)), DstPort: 22, Proto: 6,
						Bytes: 512, AuthFail: c.rnd.Intn(4) == 0,
					}.Marshal()
				}
				rq := c.getReq()
				rq.t0 = eng.Now()
				c.attempted++
				i := c.l.begin("Controller.Submit", "tenant", c.run0)
				err := c.ctl.Submit(h.ID, payload, bytes, rq.fn)
				c.l.end(i)
				if err != nil {
					c.refused++
					c.free = append(c.free, rq)
				} else {
					c.accepted++
				}
			}
			eng.After(interval, tickName, tick)
		}
		eng.After(interval, tickName, tick)
	})
}

func (s *tenantScenario) engines() [][]*sim.Engine { return shardEngines(s.cl) }

func (s *tenantScenario) run(l *spanLog, parent int32) {
	i := l.begin("Cluster.Run", "sim", parent)
	for _, c := range s.cells {
		c.run0 = i
	}
	s.cl.Run()
	l.end(i)
	for sh, sl := range s.logs {
		if l != nil && sl != nil {
			l.merge(sl, int32(sh+1))
		}
	}
}

func (s *tenantScenario) result() (outcome, error) {
	o := outcome{steps: s.cl.Steps(), simTime: s.cl.Now().Sub(sim.Time(0))}
	var admitted, rejected, reconfigs, evictions, preempts, accepted int64
	var fp strings.Builder
	var firstErr error
	for i, c := range s.cells {
		o.attempted += c.attempted
		o.completed += c.done
		o.simFailed += c.refused + c.errored
		o.lat.Merge(&c.lat)
		ctl := c.ctl
		admitted += ctl.Admitted
		rejected += ctl.Rejected
		reconfigs += ctl.Reconfigs
		evictions += ctl.Evictions
		preempts += ctl.Preempts
		accepted += c.accepted
		fmt.Fprintf(&fp, "cell%02d adm=%d rej=%d reconf=%d pre=%d evict=%d sub=%d acc=%d done=%d err=%d %s\n",
			i, ctl.Admitted, ctl.Rejected, ctl.Reconfigs, ctl.Preempts, ctl.Evictions,
			c.attempted, c.accepted, c.done, c.errored, latencyPrint(&c.lat))
		var err error
		if resolved := c.done + c.errored; resolved != c.accepted {
			err = fmt.Errorf("tenant cell %d: %d requests accepted, %d resolved", i, c.accepted, resolved)
		} else if ierr := ctl.CheckInvariants(); ierr != nil {
			err = fmt.Errorf("tenant cell %d: %w", i, ierr)
		}
		if err != nil {
			o.wrong += c.attempted
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	o.counters = map[string]float64{
		"fabric.reconfigs":    float64(reconfigs),
		"fabric.evictions":    float64(evictions),
		"tenant.admit_ratio":  ratio(float64(admitted), float64(admitted+rejected)),
		"tenant.accept_ratio": ratio(float64(accepted), float64(o.attempted)),
		"tenant.preempts":     float64(preempts),
	}
	fmt.Fprintf(&fp, "steps=%d\n", o.steps)
	o.fingerprint = fp.String()
	return o, firstErr
}

// ---- paper_tables ---------------------------------------------------

// paperIDs are every paper experiment except E17 and E18, in suite
// order.
var paperIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "X1", "E16"}

// goldenSHA256 is each table's SHA-256 at seed 1, as committed in
// BENCH_pr10.json (TestGoldenMatchesReport keeps the two in step).
var goldenSHA256 = map[string]string{
	"E1":  "a5a32f9a04dd1e98bee17a331c7b79bea4e87e41260076df4d21a7a62c0fa21e",
	"E2":  "ca8704c98b7426b827e8743d4270807bfe715c853aff159282dd83dd7e9b761c",
	"E3":  "4630296a513ae1dcede4ef1c97d3ebd0434adaadeeefc0243f9ea0ccc9639a8c",
	"E4":  "7ae64cd3b6b9572f9c35886547b3f8477a1de6fb266f3cc9172ad2c9e9cc9dc0",
	"E5":  "1c3c56e278373d1f58571aa67bf58a90af5a9cbd62c264db8caade35ef806b25",
	"E6":  "db5d56e142fe20b312a4da0096097331e98e570c1531e347ff182c2ce04326ee",
	"E7":  "fac3e492a680e2f8f760c67e3afe78fdf6729200da9f1ad69320fb71b0b02dbb",
	"E8":  "fc2ecff827c895550937650b9c7e3ae6ae36598f392e8bf16fc37736b4c129f2",
	"E9":  "67e0896da9987fcca9f7c0fec8cd1dfd4e9f014a107067a4dee188b7a2708a26",
	"E10": "8ca03836a02b29c99f73e490a7cbc317097a0c00ff5e121100a4167ded994433",
	"E11": "5f3b74f206bad59de8671a1500651948b7f60a95e63122e034b69b1d8ce86cc5",
	"E12": "dafc9d29c239002df9cacffbb71aed651b3e70a2be1c54864e57846487953c12",
	"E13": "348658f176fc917f7a9fe395f97c4a613f5a01dda755a3e1dc7436f57153fc1a",
	"E14": "fa7d0cceee370065bfce0ac7d884ce9a69945f96fb753b80071739dec1c15c99",
	"X1":  "238916f719bb49803307dd2218cc38be11010ef940accc4a0354a75c81e22aef",
	"E16": "41cd53e508a79a61d8b3e46ad2c7bb5db51792ca0e7470fcae7146e6c7e491b0",
}

type paperScenario struct {
	seed    uint64
	exps    []bench.Experiment
	results []bench.Result
	sums    []string
}

// buildPaperTables resolves every experiment through bench.ByName; the
// experiments build their scenarios inside RunSeeded.
func buildPaperTables(seed uint64, _ *telemetry.Recorder, l *spanLog) (scenario, error) {
	s := &paperScenario{seed: seed}
	i := l.begin("bench.ByName", "bench", -1)
	for _, id := range paperIDs {
		e, ok := bench.ByName(id)
		if !ok {
			l.end(i)
			return nil, fmt.Errorf("no experiment %s", id)
		}
		s.exps = append(s.exps, e)
	}
	l.end(i)
	return s, nil
}

func (s *paperScenario) engines() [][]*sim.Engine { return nil }

func (s *paperScenario) run(l *spanLog, parent int32) {
	s.results = s.results[:0]
	for _, e := range s.exps {
		i := l.begin("exp."+e.ID, "bench", parent)
		s.results = append(s.results, e.RunSeeded(s.seed))
		l.end(i)
	}
}

func (s *paperScenario) result() (outcome, error) {
	o := outcome{attempted: int64(len(s.results))}
	var fp strings.Builder
	var bad []string
	for _, r := range s.results {
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Table.String())))
		o.steps += r.Steps
		d := r.SimTime.Sub(sim.Time(0))
		o.simTime += d
		o.lat.Record(d)
		fmt.Fprintf(&fp, "%s %s steps=%d sim=%d\n", r.ID, sum, r.Steps, d)
		if s.seed == bench.DefaultSeed && sum != goldenSHA256[r.ID] {
			bad = append(bad, r.ID)
			continue
		}
		o.completed++
	}
	o.wrong = int64(len(bad))
	o.simFailed = o.wrong
	o.fingerprint = fp.String()
	if len(bad) > 0 {
		return o, fmt.Errorf("paper tables: SHA-256 differs from BENCH_pr10.json for %s", strings.Join(bad, ", "))
	}
	return o, nil
}
