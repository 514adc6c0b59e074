// Command hyperionctl exercises the OS-shell control path: it boots a
// simulated DPU, then drives the same network control-plane RPCs an
// operator would use against hardware — ping, status, bitstream load
// with authorization, and unload — entirely over the simulated fabric
// (no host CPU on the DPU side).
//
// Usage:
//
//	hyperionctl status
//	hyperionctl load -slot 2 -mib 16
//	hyperionctl load -slot 2 -mib 16 -forge   # demonstrate auth rejection
//	hyperionctl session                        # full scripted session
//	hyperionctl trace -probes 8 -dir out/      # traced Figure 2 probes
//	hyperionctl rack -shards 4                 # per-shard PDES kernel report
//	hyperionctl tenants -tenants 10 -fault 0.01  # multi-tenant SLO report
//	hyperionctl build filter.go                # compile restricted Go to the ISA
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperion/internal/bench"
	"hyperion/internal/core"
	"hyperion/internal/fabric"
	"hyperion/internal/netsim"
	"hyperion/internal/rack"
	"hyperion/internal/rpc"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/transport"
)

type ctl struct {
	eng *sim.Engine
	dpu *core.DPU
	cli *rpc.Client
}

func dial() *ctl {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := core.DefaultConfig("dpu0")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 128 << 20
	d, _, err := core.Boot(eng, net, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "boot:", err)
		os.Exit(1)
	}
	cn, err := net.Attach("hyperionctl")
	if err != nil {
		fmt.Fprintln(os.Stderr, "attach:", err)
		os.Exit(1)
	}
	cli := rpc.NewClient(eng, transport.New(eng, cfg.Transport, cn))
	cli.Timeout = sim.Duration(sim.Second)
	return &ctl{eng: eng, dpu: d, cli: cli}
}

// call performs one synchronous control RPC (driving the simulator to
// completion).
func (c *ctl) call(method string, arg any, argBytes int) (any, error) {
	var out any
	var cerr error
	c.cli.Call(c.dpu.ControlAddr(), method, arg, argBytes, func(val any, err error) {
		out, cerr = val, err
	})
	c.eng.Run()
	return out, cerr
}

func (c *ctl) status() {
	val, err := c.call(core.ShellStatus, nil, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "status:", err)
		os.Exit(1)
	}
	st := val.(core.Status)
	fmt.Printf("%s @ t=%v\n", st.Name, c.eng.Now())
	for _, line := range st.Enum {
		fmt.Println("  pcie:", line)
	}
	for _, s := range st.Slots {
		fmt.Println("  ", s)
	}
	fmt.Printf("  free: %d LUTs, %d BRAM, %d DSP; %d segments live\n",
		st.Free.LUTs, st.Free.BRAM, st.Free.DSP, st.Segments)
}

func bitstream(mib int64, tag string) *fabric.Bitstream {
	return &fabric.Bitstream{
		Name:      fmt.Sprintf("op-%dM", mib),
		SizeBytes: mib << 20,
		Uses:      fabric.Resources{LUTs: 30000, FFs: 50000, BRAM: 32},
		Depth:     16,
		II:        1,
		AuthTag:   tag,
		Process:   func(in any) any { return in },
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: hyperionctl status | load | unload | session | trace | rack | tenants | build")
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if cmd == "rack" {
		cmdRack(args) // rack-scale: no single-DPU control session to dial
		return
	}
	if cmd == "tenants" {
		cmdTenants(args) // self-contained scenario: no control session to dial
		return
	}
	if cmd == "build" {
		os.Exit(cmdBuild(args, os.Stdout, os.Stderr)) // pure compile: no DPU to dial
	}
	c := dial()
	switch cmd {
	case "status":
		c.status()
	case "load":
		fs := flag.NewFlagSet("load", flag.ExitOnError)
		slot := fs.Int("slot", 0, "target slot")
		mib := fs.Int64("mib", 8, "bitstream size in MiB")
		forge := fs.Bool("forge", false, "use a forged auth tag")
		_ = fs.Parse(args)
		tag := c.dpu.Cfg.AuthTag
		if *forge {
			tag = "forged-key"
		}
		t0 := c.eng.Now()
		_, err := c.call(core.ShellLoad, core.LoadArgs{Slot: *slot, Bitstream: bitstream(*mib, tag)}, int(*mib)<<20)
		if err != nil {
			fmt.Println("load rejected:", err)
			return
		}
		fmt.Printf("slot %d active after %v partial reconfiguration\n", *slot, c.eng.Now().Sub(t0))
	case "unload":
		fs := flag.NewFlagSet("unload", flag.ExitOnError)
		slot := fs.Int("slot", 0, "target slot")
		_ = fs.Parse(args)
		if _, err := c.call(core.ShellUnload, *slot, 64); err != nil {
			fmt.Fprintln(os.Stderr, "unload:", err)
			os.Exit(1)
		}
		fmt.Printf("slot %d unloaded\n", *slot)
	case "session":
		fmt.Println("== ping ==")
		pong, err := c.call(core.ShellPing, nil, 64)
		fmt.Println("  ", pong, err)
		fmt.Println("== initial status ==")
		c.status()
		fmt.Println("== load 16 MiB bitstream into slot 1 ==")
		t0 := c.eng.Now()
		if _, err := c.call(core.ShellLoad, core.LoadArgs{Slot: 1, Bitstream: bitstream(16, c.dpu.Cfg.AuthTag)}, 16<<20); err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
		fmt.Printf("   active after %v\n", c.eng.Now().Sub(t0))
		fmt.Println("== forged bitstream is rejected ==")
		if _, err := c.call(core.ShellLoad, core.LoadArgs{Slot: 2, Bitstream: bitstream(8, "forged")}, 8<<20); err != nil {
			fmt.Println("   rejected:", err)
		} else {
			fmt.Println("   UNEXPECTEDLY ACCEPTED")
		}
		fmt.Println("== status after load ==")
		c.status()
		fmt.Println("== unload slot 1 ==")
		if _, err := c.call(core.ShellUnload, 1, 64); err != nil {
			fmt.Fprintln(os.Stderr, "unload:", err)
			os.Exit(1)
		}
		c.status()
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		probes := fs.Int("probes", 8, "number of Figure 2 probes to drive")
		dir := fs.String("dir", "", "write trace artifacts (Perfetto JSON, histograms, critical path) to this existing directory")
		_ = fs.Parse(args)
		c.trace(*probes, *dir)
	default:
		fmt.Fprintln(os.Stderr, "unknown command", cmd)
		os.Exit(2)
	}
}

// cmdRack is the operator's view of the sharded PDES kernel: it runs
// the rack scenario at the requested shard count and prints per-shard
// event/envelope counts and the busy-versus-barrier-stall wall split,
// the numbers that drive lookahead tuning. The table itself is
// shard-count invariant; only the per-shard breakdown moves.
func cmdRack(args []string) {
	fs := flag.NewFlagSet("rack", flag.ExitOnError)
	shards := fs.Int("shards", 4, "conservative-PDES shards")
	boxes := fs.Int("boxes", 8, "DPU boxes in the rack")
	seed := fs.Uint64("seed", 1, "scenario seed")
	_ = fs.Parse(args)

	cfg := rack.DefaultConfig()
	if *shards < 1 || *boxes < cfg.Replicas {
		fmt.Fprintf(os.Stderr, "rack: -shards must be >= 1, -boxes >= %d (the replication factor)\n", cfg.Replicas)
		os.Exit(2)
	}
	cfg.Boxes = *boxes
	cfg.Shards = *shards
	ra := rack.New(cfg, *seed, nil)
	ra.Run()

	cl := ra.Cluster()
	tot := ra.Totals()
	fmt.Printf("rack: %d boxes on %d shards — ops=%d ok=%d err=%d, sim-time %v\n",
		cfg.Boxes, cl.Shards(), tot.Issued, tot.OK, tot.Errs, cl.Now().Sub(sim.Time(0)))
	fmt.Printf("rack: %d events, %d barrier windows, lookahead %v\n",
		cl.Steps(), cl.Windows(), cl.Lookahead())
	var tbl sim.Table
	tbl.Header = []string{"shard", "events", "sends", "recvs", "busy ms", "stall ms"}
	var busy, stall int64
	for _, st := range cl.Stats() {
		busy += st.BusyNs
		stall += st.StallNs
		tbl.AddRow(fmt.Sprintf("%d", st.Shard), fmt.Sprintf("%d", st.Events),
			fmt.Sprintf("%d", st.Sends), fmt.Sprintf("%d", st.Recvs),
			fmt.Sprintf("%.2f", float64(st.BusyNs)/1e6), fmt.Sprintf("%.2f", float64(st.StallNs)/1e6))
	}
	fmt.Print(tbl.String())
	if busy+stall > 0 {
		fmt.Printf("barrier stall: %.1f%% of shard wall time\n", 100*float64(stall)/float64(busy+stall))
	}
}

// cmdTenants is the operator's view of the multi-tenant control plane:
// one E18 sweep cell — admission, weighted-fair slot scheduling, slot
// leases, fault-plane evictions — followed by the per-tenant SLO
// report. Output is a pure function of the flags, so two invocations
// with the same flags print identical bytes.
func cmdTenants(args []string) {
	fs := flag.NewFlagSet("tenants", flag.ExitOnError)
	n := fs.Int("tenants", 10, "tenant arrivals (a late tenant arrives on top)")
	leaseUS := fs.Int64("lease-us", 2000, "slot lease in microseconds (0 = static placement)")
	rate := fs.Float64("fault", 0, "fault-plane slot-eviction rate in [0,1]")
	seed := fs.Uint64("seed", 1, "scenario seed")
	_ = fs.Parse(args)
	if *n < 1 || *leaseUS < 0 || *rate < 0 || *rate > 1 {
		fmt.Fprintln(os.Stderr, "tenants: -tenants must be >= 1, -lease-us >= 0, -fault in [0,1]")
		os.Exit(2)
	}

	res, rows := bench.TenantScenario(*seed, *n, sim.Duration(*leaseUS)*sim.Microsecond, *rate)
	fmt.Print(res.String())
	var tbl sim.Table
	tbl.Header = []string{"tenant", "wgt", "state", "plc", "pre", "evt", "sub", "ok", "retry", "err",
		"p50", "p99", "goodput/s", "slo"}
	for _, r := range rows {
		slo := "ok"
		switch {
		case r.ViolLat && r.ViolGood:
			slo = "lat+good!"
		case r.ViolLat:
			slo = "lat!"
		case r.ViolGood:
			slo = "good!"
		}
		tbl.AddRow(r.Name, fmt.Sprintf("%d", r.Weight), r.State,
			fmt.Sprintf("%d", r.Placements), fmt.Sprintf("%d", r.Preemptions), fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%d", r.Submitted), fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Retryable), fmt.Sprintf("%d", r.Failed),
			r.P50.String(), r.P99.String(), fmt.Sprintf("%.0f", r.GoodputOPS), slo)
	}
	fmt.Print(tbl.String())
}

// trace arms the telemetry plane on the booted DPU, drives n Figure 2
// probes through the full hardware path, and prints the per-stage
// latency table plus the per-request critical-path summary. With dir
// set, the Chrome trace JSON and text summaries are written there.
func (c *ctl) trace(n int, dir string) {
	if n <= 0 {
		fmt.Fprintln(os.Stderr, "trace: -probes must be positive")
		os.Exit(1)
	}
	if dir != "" {
		st, err := os.Stat(dir)
		if err != nil || !st.IsDir() {
			fmt.Fprintf(os.Stderr, "trace: -dir %s: not a directory\n", dir)
			os.Exit(1)
		}
	}
	rec := telemetry.NewRecorder("hyperionctl.trace")
	c.dpu.SetRecorder(rec)
	if err := c.dpu.LoadAccelerator(0, core.ProbeBitstream(c.dpu.Cfg.AuthTag), nil); err != nil {
		fmt.Fprintln(os.Stderr, "trace: load:", err)
		os.Exit(1)
	}
	c.eng.Run()
	var tbl sim.Table
	tbl.Header = []string{"probe", "blocks", "arbiter", "pipeline", "storage", "egress", "total"}
	for i := 0; i < n; i++ {
		blocks := 1 + i%8
		var tr core.Fig2Trace
		err := c.dpu.Fig2Probe(0, i%4, int64(i)*7, blocks, func(got core.Fig2Trace, _ []byte, perr error) {
			if perr != nil {
				fmt.Fprintln(os.Stderr, "trace: probe:", perr)
				os.Exit(1)
			}
			tr = got
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace: probe:", err)
			os.Exit(1)
		}
		c.eng.Run()
		tbl.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", blocks),
			tr.Arbiter.String(), tr.Pipeline.String(), tr.Storage.String(),
			tr.Egress.String(), tr.Total.String())
	}
	fmt.Print(tbl.String())
	fmt.Println()
	fmt.Print(rec.CriticalPath())
	if dir != "" {
		a, err := bench.WriteTraceArtifacts(dir, "hyperionctl", rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace artifacts: %s %s %s\n", a.TraceJSON, a.HistTXT, a.CritTXT)
	}
}
