// Package core assembles the Hyperion DPU out of its substrates, wiring
// the Figure 2 schematic: two QSFP ports feed a DEMUX and AXIS arbiters
// into reconfigurable accelerator slots; a runtime config engine loads
// authorized bitstreams; an FPGA-hosted PCIe root complex with an NVMe
// host IP core reaches four SSDs over bifurcated x4 links; and the
// single-level segment store unifies DRAM and flash behind 128-bit
// object ids. There is no host CPU anywhere in the path.
package core

import (
	"errors"
	"fmt"

	"hyperion/internal/fabric"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/pcie"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/tenant"
	"hyperion/internal/transport"
)

// Config shapes one DPU.
type Config struct {
	Name    string
	Fabric  fabric.Config
	NVMe    nvme.Config // per-SSD template; four instances are created
	SSDs    int
	Seg     seg.Config
	AuthTag string // accepted bitstream authorization tag
	// Transport used by the OS-shell control plane and data services.
	Transport transport.Kind
}

// DefaultConfig returns the paper's prototype: U280 fabric, 4 NVMe SSDs,
// RDMA-style transport for control.
func DefaultConfig(name string) Config {
	ncfg := nvme.DefaultConfig(name + "-ssd")
	ncfg.Blocks = 4 << 20 // 16 GiB per SSD keeps simulations light
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 256 << 20
	return Config{
		Name:      name,
		Fabric:    fabric.DefaultConfig(),
		NVMe:      ncfg,
		SSDs:      4,
		Seg:       scfg,
		AuthTag:   "hyperion-dev-key",
		Transport: transport.RDMA,
	}
}

// Errors.
var (
	ErrSelfTest  = errors.New("core: JTAG self-test failed")
	ErrNotBooted = errors.New("core: DPU not booted")
)

// DPU is one Hyperion device.
type DPU struct {
	Cfg    Config
	Eng    *sim.Engine
	Fabric *fabric.Fabric
	Root   *pcie.RootComplex
	SSDs   []*nvme.Device
	Hosts  []*nvme.Host
	Store  *seg.Store
	View   *seg.SyncView

	// QSFP0 carries the data plane; QSFP1 carries the control plane
	// (the OS-shell) — the split drawn in Figure 2.
	Data    *netsim.NIC
	Control *netsim.NIC
	DataEP  transport.Endpoint
	CtrlEP  transport.Endpoint
	CtrlSrv *rpc.Server

	booted   bool
	enumOut  []string
	arbiter  *fabric.Arbiter
	handlers map[uint16]func(netsim.Frame)
	rec      *telemetry.Recorder
	tenants  *tenant.Controller
	fig2Free []*fig2Ctx

	Counters sim.CounterSet
}

// SetRecorder arms the telemetry plane on every substrate of this DPU:
// the fabric slots, the AXIS ingress arbiter, the PCIe root complex,
// each SSD and its NVMe host driver, the segment store, and the
// control-plane RPC server. Disarmed (nil) every hook is a pure nil
// check — the datapath is bit-identical to the unhooked DPU.
func (d *DPU) SetRecorder(rec *telemetry.Recorder) {
	d.rec = rec
	d.Fabric.SetRecorder(rec)
	d.Root.SetRecorder(rec)
	for _, dev := range d.SSDs {
		dev.SetRecorder(rec)
	}
	for _, h := range d.Hosts {
		h.SetRecorder(rec)
	}
	d.Store.SetRecorder(rec)
	d.arbiter.SetRecorder(rec)
	if d.tenants != nil {
		d.tenants.SetRecorder(rec)
	}
	if d.CtrlSrv != nil {
		d.CtrlSrv.SetRecorder(rec)
	}
}

// Boot powers the DPU: fabric self-test, PCIe enumeration by the
// on-card root complex, NVMe binding, segment store construction, and
// network attachment — all without any host CPU (the paper's
// stand-alone boot). It returns the enumeration log.
func Boot(eng *sim.Engine, net *netsim.Network, cfg Config) (*DPU, []string, error) {
	return boot(eng, net, cfg, nil)
}

// Reboot boots a DPU against the surviving flash of a previous instance
// (the devices keep their contents; DRAM and fabric state are lost).
// Callers then run Store.Recover to rebuild the segment table from the
// persisted checkpoint — the crash-recovery path of §2.1.
func Reboot(eng *sim.Engine, net *netsim.Network, old *DPU) (*DPU, []string, error) {
	if net != nil {
		net.Detach(old.DataAddr())
		net.Detach(old.ControlAddr())
	}
	return boot(eng, net, old.Cfg, old.SSDs)
}

func boot(eng *sim.Engine, net *netsim.Network, cfg Config, existing []*nvme.Device) (*DPU, []string, error) {
	d := &DPU{Cfg: cfg, Eng: eng, handlers: make(map[uint16]func(netsim.Frame))}

	// JTAG self-test: the fabric must expose sane geometry.
	if cfg.Fabric.Slots <= 0 || cfg.Fabric.ClockHz <= 0 {
		return nil, nil, ErrSelfTest
	}
	d.Fabric = fabric.New(eng, cfg.Fabric, cfg.AuthTag)

	// Root complex with the crossover board's x16 → 4×x4 bifurcation.
	lanes := make([]int, cfg.SSDs)
	for i := range lanes {
		lanes[i] = 4
	}
	d.Root = pcie.NewRootComplex(eng, lanes)
	for i := 0; i < cfg.SSDs; i++ {
		var dev *nvme.Device
		if existing != nil {
			dev = existing[i]
		} else {
			ncfg := cfg.NVMe
			ncfg.Name = fmt.Sprintf("%s-ssd%d", cfg.Name, i)
			dev = nvme.New(eng, ncfg)
		}
		if err := d.Root.Attach(i, dev); err != nil {
			return nil, nil, err
		}
		d.SSDs = append(d.SSDs, dev)
	}
	enum, err := d.Root.Enumerate()
	if err != nil {
		return nil, nil, err
	}
	d.enumOut = enum

	// Bind each SSD's DMA to its own PCIe link and build host drivers
	// (the "NVMe host IP core" block).
	for i, dev := range d.SSDs {
		base, _ := d.Root.Ports()[i].BAR()
		dev.Bind(func(size int64, done func()) {
			// Device-initiated DMA on its own bifurcated link.
			if err := d.Root.DMA(base, size, done); err != nil {
				done()
			}
		}, nil)
		d.Hosts = append(d.Hosts, nvme.NewHost(dev, func(q int) {
			_, _ = d.Root.MMIOWrite(base+int64(q)*nvme.DoorbellStride, 1)
		}))
	}

	// Single-level store over DRAM + the four SSDs.
	d.Store = seg.New(eng, cfg.Seg, d.Hosts)
	d.View = seg.NewSyncView(d.Store)

	// QSFP ports.
	if net != nil {
		d.Data, err = net.Attach(netsim.Addr(cfg.Name + "-q0"))
		if err != nil {
			return nil, nil, err
		}
		d.Control, err = net.Attach(netsim.Addr(cfg.Name + "-q1"))
		if err != nil {
			return nil, nil, err
		}
		d.DataEP = transport.New(eng, cfg.Transport, d.Data)
		d.CtrlEP = transport.New(eng, cfg.Transport, d.Control)
		d.CtrlSrv = rpc.NewServer(eng, d.CtrlEP, rpc.RunToCompletion)
		d.registerShell()
	}

	// The Figure 2 ingress: DEMUX by destination port into the AXIS
	// arbiter feeding the slots. Raw-frame handlers are registered per
	// UDP-style port by the applications.
	d.arbiter = fabric.NewArbiter(eng, cfg.Name+".arb", cfg.Fabric.ClockHz, 64, 256,
		cfg.Fabric.Slots, func(it fabric.Item) { d.dispatch(it) })

	d.booted = true
	return d, enum, nil
}

// DataAddr returns the data-plane network address.
func (d *DPU) DataAddr() netsim.Addr { return netsim.Addr(d.Cfg.Name + "-q0") }

// ControlAddr returns the control-plane network address.
func (d *DPU) ControlAddr() netsim.Addr { return netsim.Addr(d.Cfg.Name + "-q1") }

// dispatch runs an item that has traversed the arbiter: it carries the
// pre-bound handler.
func (d *DPU) dispatch(it fabric.Item) {
	b, ok := it.Payload.(boundFrame)
	if !ok {
		d.Counters.Get("bad_items").Add(1)
		return
	}
	b.handler(b.frame)
}

type boundFrame struct {
	frame   netsim.Frame
	handler func(netsim.Frame)
}

// HandleRawPort registers a raw-frame handler for a destination port
// (the packet's classifier key). Frames arriving on the data NIC with a
// matching port flow through DEMUX and arbiter before the handler runs.
func (d *DPU) HandleRawPort(port uint16, fn func(netsim.Frame)) {
	if len(d.handlers) == 0 {
		d.Data.OnReceive(d.onDataFrame)
	}
	d.handlers[port] = fn
}

// rawFrame is the payload shape raw-port senders use.
type RawFrame struct {
	Port    uint16
	Payload []byte
}

func (d *DPU) onDataFrame(f netsim.Frame) {
	rf, ok := f.Payload.(RawFrame)
	if !ok {
		d.Counters.Get("unclassified").Add(1)
		return
	}
	h, ok := d.handlers[rf.Port]
	if !ok {
		d.Counters.Get("no_handler").Add(1)
		return
	}
	// Route through the arbiter input matching the port's slot affinity.
	in := d.arbiter.In(int(rf.Port) % d.arbiter.Inputs())
	err := in.Push(fabric.Item{Payload: boundFrame{frame: f, handler: h}, Bytes: f.Bytes})
	if err != nil {
		d.Counters.Get("ingress_drops").Add(1)
	}
}

// LoadAccelerator asks the config engine to load a bitstream into the
// given slot (local call; the OS-shell exposes the same over the
// network). done fires when partial reconfiguration completes.
func (d *DPU) LoadAccelerator(slot int, bs *fabric.Bitstream, done func()) error {
	if !d.booted {
		return ErrNotBooted
	}
	return d.Fabric.LoadBitstream(slot, bs, done)
}

// Submit pushes an item into an accelerator slot.
func (d *DPU) Submit(slot int, item any, result func(out any)) error {
	return d.Fabric.Submit(slot, item, result)
}

// Enumeration returns the boot-time PCIe walk output.
func (d *DPU) Enumeration() []string { return d.enumOut }
