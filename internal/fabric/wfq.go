package fabric

import (
	"fmt"
	"math"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// wfqPort is one weighted input of a WFQArbiter: a head-indexed FIFO
// plus the deficit-round-robin bookkeeping for its share of the bus.
type wfqPort struct {
	name    string
	weight  int
	deficit int64 // accumulated bus beats of credit
	visited bool  // quantum already granted on the current scheduler visit
	// queue is a head-indexed FIFO like Stream's: pops advance head and
	// the backing array recycles once drained.
	queue  []Item
	head   int
	pushAt []sim.Time // armed only: enqueue time per queued item

	Pushed    int64
	Delivered int64
	Dropped   int64 // backpressure drops (FIFO full)
	Flushed   int64 // items removed by Flush (preemption/eviction)
}

func (p *wfqPort) len() int { return len(p.queue) - p.head }

func (p *wfqPort) pop() (Item, sim.Time) {
	it := p.queue[p.head]
	p.queue[p.head] = Item{}
	p.head++
	var t0 sim.Time
	if len(p.pushAt) > 0 {
		t0 = p.pushAt[0]
		p.pushAt = p.pushAt[1:]
	}
	if p.len() == 0 {
		p.queue = p.queue[:0]
		p.head = 0
	}
	return it, t0
}

// WFQArbiter merges N weighted input FIFOs onto one bus using deficit
// round robin: on each visit a non-empty port earns `weight` beats of
// credit, and its head departs once the credit covers the item's beat
// cost. The long-run bus share of backlogged ports is therefore
// proportional to their weights, yet any port with a positive weight is
// served within a bounded number of rounds — the weighted-fair
// front end of the tenant plane, replacing the plain round-robin
// Arbiter where tenants are not equals.
//
// Unlike Arbiter (independent per-input Streams racing to one sink),
// WFQArbiter models a single shared bus: exactly one item occupies it
// at a time, for ceil(Bytes/WidthBytes) beats.
type WFQArbiter struct {
	Name       string
	WidthBytes int // bus width per beat
	DepthItems int // FIFO capacity per port, in items

	eng     *sim.Engine
	period  sim.Duration // one beat
	sink    func(Item)
	onDrop  func(Item) // optional: observes fault-injected drops
	onFlush func(Item) // optional: observes items removed by Flush
	ports   []*wfqPort
	rr      int // port the scheduler is currently visiting
	busy    bool
	cur     Item     // item occupying the bus
	curPort int      // its port
	curT0   sim.Time // armed only: its enqueue time

	beatName string
	beatFn   func()
	plan     *fault.Plan
	rec      *telemetry.Recorder
	dropName string // armed only: precomputed drop-counter name

	Pushed     int64
	Delivered  int64
	FaultDrops int64 // injected drops (bus beats consumed, then discarded)
}

// NewWFQArbiter creates a weighted-fair arbiter with n input ports (all
// weight 1 until SetWeight) feeding sink out, clocked at clockHz.
func NewWFQArbiter(eng *sim.Engine, name string, clockHz int64, widthBytes, depthItems, n int, out func(Item)) *WFQArbiter {
	if widthBytes <= 0 || depthItems <= 0 || clockHz <= 0 || n <= 0 {
		panic("fabric: invalid wfq parameters")
	}
	w := &WFQArbiter{
		Name:       name,
		WidthBytes: widthBytes,
		DepthItems: depthItems,
		eng:        eng,
		period:     sim.Duration(int64(sim.Second) / clockHz),
		sink:       out,
		beatName:   "wfq:" + name,
	}
	w.beatFn = w.deliver
	for i := 0; i < n; i++ {
		w.ports = append(w.ports, &wfqPort{name: fmt.Sprintf("%s.in%d", name, i), weight: 1})
	}
	return w
}

// SetWeight sets port i's DRR quantum, in bus beats per scheduler
// visit. Weights must be positive: the starvation bound (any backlogged
// port is served within one full round once its credit covers its head)
// holds only for weight >= 1.
func (w *WFQArbiter) SetWeight(i, weight int) {
	if weight < 1 {
		panic("fabric: wfq weight must be positive")
	}
	w.ports[i].weight = weight
}

// Weight returns port i's quantum.
func (w *WFQArbiter) Weight(i int) int { return w.ports[i].weight }

// Ports returns the number of input ports.
func (w *WFQArbiter) Ports() int { return len(w.ports) }

// Len returns port i's FIFO occupancy (excluding an item on the bus).
func (w *WFQArbiter) Len(i int) int { return w.ports[i].len() }

// PortStats reports per-port counters (pushed, delivered, backpressure
// drops, flushed) for telemetry tables.
func (w *WFQArbiter) PortStats(i int) (pushed, delivered, dropped, flushed int64) {
	p := w.ports[i]
	return p.Pushed, p.Delivered, p.Dropped, p.Flushed
}

// SetFaultPlan installs a fault plan consulted once per delivered item
// (kind Drop, as on Stream: the item occupies its bus beats, then is
// squashed before the sink). A nil or zero-rate plan leaves delivery
// bit-identical to an unhooked arbiter.
func (w *WFQArbiter) SetFaultPlan(p *fault.Plan) { w.plan = p }

// SetOnDrop installs an observer for fault-injected drops, so upstream
// request bookkeeping (the tenant plane's completion callbacks) can
// resolve squashed items instead of hanging.
func (w *WFQArbiter) SetOnDrop(fn func(Item)) { w.onDrop = fn }

// SetOnFlush installs an observer invoked for every item Flush removes,
// in FIFO order, before Flush returns.
func (w *WFQArbiter) SetOnFlush(fn func(Item)) { w.onFlush = fn }

// SetRecorder arms the telemetry plane: one span per delivered item
// covering enqueue to sink handoff (FIFO wait + bus beats), named after
// the port. Disarmed (nil, the default) the hooks are pure nil checks
// and delivery stays bit-identical.
func (w *WFQArbiter) SetRecorder(rec *telemetry.Recorder) {
	w.rec = rec
	if rec != nil {
		w.dropName = "drop:" + w.Name
	}
}

// Push enqueues an item on port i, or returns ErrStreamFull under
// backpressure.
func (w *WFQArbiter) Push(i int, it Item) error {
	if w.sink == nil {
		panic(fmt.Sprintf("fabric: wfq %q has no sink", w.Name))
	}
	p := w.ports[i]
	if it.Bytes <= 0 {
		it.Bytes = 1
	}
	if p.len() >= w.DepthItems {
		p.Dropped++
		return ErrStreamFull
	}
	p.queue = append(p.queue, it)
	if w.rec != nil {
		p.pushAt = append(p.pushAt, w.eng.Now())
	}
	p.Pushed++
	w.Pushed++
	if !w.busy {
		w.busy = true
		w.next()
	}
	return nil
}

// Flush removes every queued item from port i (an evicted or departing
// tenant's backlog) and returns them in FIFO order, resetting the
// port's scheduler credit. An item already occupying the bus is not
// recalled — it was committed to the wire — and still reaches the sink.
func (w *WFQArbiter) Flush(i int) []Item {
	p := w.ports[i]
	n := p.len()
	if n == 0 {
		p.deficit = 0
		p.visited = false
		return nil
	}
	out := make([]Item, 0, n)
	for p.len() > 0 {
		it, _ := p.pop()
		p.Flushed++
		out = append(out, it)
		if w.onFlush != nil {
			w.onFlush(it)
		}
	}
	p.deficit = 0
	p.visited = false
	return out
}

func (w *WFQArbiter) beats(it Item) int64 {
	b := int64((it.Bytes + w.WidthBytes - 1) / w.WidthBytes)
	if b < 1 {
		b = 1
	}
	return b
}

// next runs the DRR scheduler: pick the item to put on the bus and
// schedule its beats. Progress is guaranteed with positive weights —
// every full round adds at least one beat of credit to each backlogged
// port, and an item's cost is finite.
//
// A quantum is a few beats while an item may cost a thousand, so most
// rounds can serve nothing. After one full round of visits that served
// nothing, every backlogged port has visited == false and credit below
// its head's cost, and no event runs inside next(), so the following
// rounds are determined: round k = min_p ceil((cost_p − deficit_p) /
// weight_p) is the first in which some port's credit covers its head,
// and rounds 1..k−1 only add weight_p to each backlogged deficit. The
// scheduler grants those k−1 rounds of credit in one step and runs
// round k as usual, from the same w.rr, so it makes exactly the
// decisions the round-by-round loop makes.
func (w *WFQArbiter) next() {
	n := len(w.ports)
	backlog := false
	for _, p := range w.ports {
		if p.len() > 0 {
			backlog = true
			break
		}
	}
	if !backlog {
		w.busy = false
		return
	}
	idle := 0 // consecutive visits that served nothing
	for {
		if idle == n {
			k := int64(math.MaxInt64)
			for _, p := range w.ports {
				if p.len() > 0 {
					need := w.beats(p.queue[p.head]) - p.deficit
					k = min(k, (need+int64(p.weight)-1)/int64(p.weight))
				}
			}
			for _, p := range w.ports {
				if p.len() > 0 {
					p.deficit += (k - 1) * int64(p.weight)
				}
			}
			idle = 0
		}
		p := w.ports[w.rr]
		if p.len() == 0 {
			p.deficit = 0
			p.visited = false
			w.rr = (w.rr + 1) % n
			idle++
			continue
		}
		if !p.visited {
			p.deficit += int64(p.weight)
			p.visited = true
		}
		cost := w.beats(p.queue[p.head])
		if p.deficit < cost {
			p.visited = false
			w.rr = (w.rr + 1) % n
			idle++
			continue
		}
		p.deficit -= cost
		w.cur, w.curT0 = p.pop()
		w.curPort = w.rr
		w.eng.After(sim.Duration(cost)*w.period, w.beatName, w.beatFn)
		return
	}
}

// deliver fires when the bus finishes the in-service item's beats.
func (w *WFQArbiter) deliver() {
	it := w.cur
	p := w.ports[w.curPort]
	w.cur = Item{}
	t0 := w.curT0
	if w.plan.Roll(fault.Drop) {
		w.FaultDrops++
		if w.rec != nil {
			w.rec.Count("wfq", w.dropName, 1)
		}
		if w.onDrop != nil {
			w.onDrop(it)
		}
	} else {
		if w.rec != nil {
			sp := w.rec.Begin("wfq", p.name, it.Span, t0)
			sp.End(w.eng.Now())
		}
		p.Delivered++
		w.Delivered++
		w.sink(it)
	}
	w.next()
}
