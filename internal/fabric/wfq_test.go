package fabric

import (
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// drain pushes n items of size bytes on port p.
func wfqFill(t *testing.T, w *WFQArbiter, port, n, bytes int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Push(port, Item{Payload: port, Bytes: bytes}); err != nil {
			t.Fatalf("push port %d item %d: %v", port, i, err)
		}
	}
}

func TestWFQWeightedShare(t *testing.T) {
	// Two backlogged ports with weights 3:1 must split the bus 3:1 over
	// a long run of equal-size items.
	eng := sim.NewEngine(1)
	var got []int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 1024, 2, func(it Item) {
		got = append(got, it.Payload.(int))
	})
	w.SetWeight(0, 3)
	w.SetWeight(1, 1)
	wfqFill(t, w, 0, 400, 64)
	wfqFill(t, w, 1, 400, 64)
	// Stop while both are still backlogged: run a fixed window.
	eng.RunUntil(sim.Time(400 * 4 * 1000)) // 400 beats' worth of time
	var n0, n1 int
	for _, p := range got {
		if p == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0+n1 == 0 {
		t.Fatal("nothing delivered")
	}
	ratio := float64(n0) / float64(n1)
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("weighted share off: %d vs %d (ratio %.2f, want ~3)", n0, n1, ratio)
	}
}

func TestWFQWorkConservingAndOrder(t *testing.T) {
	// An idle competitor must not slow a lone port, and per-port FIFO
	// order is preserved.
	eng := sim.NewEngine(1)
	var got []int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 256, 4, func(it Item) {
		got = append(got, it.Payload.(int))
	})
	for i := 0; i < 100; i++ {
		if err := w.Push(2, Item{Payload: i, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
	// Work conservation: 100 equal items × 1 beat at 4 ns/beat.
	want := sim.Duration(100) * sim.Duration(int64(sim.Second)/250_000_000)
	if eng.Now().Sub(sim.Time(0)) != want {
		t.Fatalf("lone port slowed: finished at %v, want %v", eng.Now(), want)
	}
}

func TestWFQStarvationFree(t *testing.T) {
	// A weight-1 port against a weight-16 flood still gets served: DRR
	// guarantees each backlogged port at least one item per accumulated
	// quantum, so the weak port's first item completes within a bounded
	// number of strong-port items.
	eng := sim.NewEngine(1)
	var weakAt sim.Time
	var strongBefore int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 2048, 2, func(it Item) {
		if it.Payload.(int) == 1 {
			if weakAt == 0 {
				weakAt = eng.Now()
			}
		} else if weakAt == 0 {
			strongBefore++
		}
	})
	w.SetWeight(0, 16)
	w.SetWeight(1, 1)
	wfqFill(t, w, 0, 1000, 512) // 8 beats each
	wfqFill(t, w, 1, 1, 512)
	eng.Run()
	if weakAt == 0 {
		t.Fatal("weight-1 port starved")
	}
	// Weak port needs 8 beats = 8 rounds of credit; each round the
	// strong port may move 16 beats = 2 items. Allow slack.
	if strongBefore > 32 {
		t.Fatalf("weak port waited behind %d strong items (bound 32)", strongBefore)
	}
}

func TestWFQBackpressureAndFlush(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 4, 2, func(it Item) { delivered++ })
	wfqFill(t, w, 0, 4, 64) // one goes in service, three queue... depth counts queued only
	// Port 0 now has 3 queued (head popped into service); one more fits.
	if err := w.Push(0, Item{Payload: 0, Bytes: 64}); err != nil {
		t.Fatalf("push within depth: %v", err)
	}
	for w.Len(0) < 4 {
		if err := w.Push(0, Item{Payload: 0, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Push(0, Item{Payload: 0, Bytes: 64}); err != ErrStreamFull {
		t.Fatalf("overfull push: got %v, want ErrStreamFull", err)
	}
	var flushed []Item
	w.SetOnFlush(func(it Item) { flushed = append(flushed, it) })
	items := w.Flush(0)
	if len(items) != 4 || len(flushed) != 4 {
		t.Fatalf("flush returned %d items, observer saw %d (want 4)", len(items), len(flushed))
	}
	eng.Run()
	// Only the in-service item reaches the sink.
	if delivered != 1 {
		t.Fatalf("delivered %d after flush, want 1 (the in-service item)", delivered)
	}
	_, _, dropped, fl := w.PortStats(0)
	if dropped != 1 || fl != 4 {
		t.Fatalf("port stats dropped=%d flushed=%d, want 1/4", dropped, fl)
	}
}

func TestWFQFaultDropResolves(t *testing.T) {
	// An armed Drop rate squashes items on the bus but every squashed
	// item is observed via OnDrop — nothing vanishes silently.
	eng := sim.NewEngine(1)
	var delivered, dropped int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 1024, 1, func(it Item) { delivered++ })
	w.SetOnDrop(func(it Item) { dropped++ })
	plan := fault.NewPlan(7, "wfq").Set(fault.Drop, 0.2)
	w.SetFaultPlan(plan)
	wfqFill(t, w, 0, 500, 64)
	eng.Run()
	if delivered+dropped != 500 {
		t.Fatalf("delivered %d + dropped %d != 500", delivered, dropped)
	}
	if dropped == 0 {
		t.Fatal("20% drop rate injected nothing over 500 items")
	}
	if int64(dropped) != w.FaultDrops {
		t.Fatalf("observer saw %d, counter says %d", dropped, w.FaultDrops)
	}
}

func TestWFQDeterministicAndTelemetryNeutral(t *testing.T) {
	// Same seed, same pushes → identical delivery order and timing; an
	// armed recorder must not change either.
	run := func(rec *telemetry.Recorder) (order []int, at []sim.Time) {
		eng := sim.NewEngine(1)
		rng := sim.NewRand(42)
		w := NewWFQArbiter(eng, "t", 250_000_000, 64, 512, 3, func(it Item) {
			order = append(order, it.Payload.(int))
			at = append(at, eng.Now())
		})
		w.SetRecorder(rec)
		w.SetWeight(0, 1)
		w.SetWeight(1, 2)
		w.SetWeight(2, 4)
		for i := 0; i < 300; i++ {
			p := int(rng.Intn(3))
			sz := 64 + int(rng.Intn(8))*64
			port, bytes := p, sz
			eng.At(sim.Time(i*100), "push", func() {
				_ = w.Push(port, Item{Payload: port, Bytes: bytes})
			})
		}
		eng.Run()
		return
	}
	o1, t1 := run(nil)
	o2, t2 := run(nil)
	rec := telemetry.NewRecorder("wfq-test")
	o3, t3 := run(rec)
	if len(o1) == 0 {
		t.Fatal("no deliveries")
	}
	for i := range o1 {
		if o1[i] != o2[i] || t1[i] != t2[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
		if o1[i] != o3[i] || t1[i] != t3[i] {
			t.Fatalf("armed recorder perturbed delivery at %d", i)
		}
	}
	if rec.Events() == 0 {
		t.Fatal("armed recorder captured no spans")
	}
}

// refWFQ is the round-by-round DRR scheduler WFQArbiter ran before the
// skip-ahead: every loop iteration visits one port and grants at most
// one quantum. It is the reference TestWFQSkipAheadMatchesReference
// holds the arbiter to, decision for decision.
type refWFQ struct {
	eng    *sim.Engine
	period sim.Duration
	width  int
	depth  int
	ports  []*wfqPort
	rr     int
	busy   bool
	cur    Item
	plan   *fault.Plan
	sink   func(Item)
	onDrop func(Item)
}

func newRefWFQ(eng *sim.Engine, clockHz int64, width, depth, n int, out func(Item)) *refWFQ {
	r := &refWFQ{eng: eng, period: sim.Duration(int64(sim.Second) / clockHz), width: width, depth: depth, sink: out}
	for i := 0; i < n; i++ {
		r.ports = append(r.ports, &wfqPort{weight: 1})
	}
	return r
}

func (r *refWFQ) Push(i int, it Item) error {
	p := r.ports[i]
	if p.len() >= r.depth {
		return ErrStreamFull
	}
	p.queue = append(p.queue, it)
	if !r.busy {
		r.busy = true
		r.next()
	}
	return nil
}

func (r *refWFQ) SetWeight(i, weight int) { r.ports[i].weight = weight }

func (r *refWFQ) Flush(i int) []Item {
	p := r.ports[i]
	var out []Item
	for p.len() > 0 {
		it, _ := p.pop()
		out = append(out, it)
	}
	p.deficit = 0
	p.visited = false
	return out
}

func (r *refWFQ) next() {
	n := len(r.ports)
	backlog := false
	for _, p := range r.ports {
		if p.len() > 0 {
			backlog = true
			break
		}
	}
	if !backlog {
		r.busy = false
		return
	}
	for {
		p := r.ports[r.rr]
		if p.len() == 0 {
			p.deficit = 0
			p.visited = false
			r.rr = (r.rr + 1) % n
			continue
		}
		if !p.visited {
			p.deficit += int64(p.weight)
			p.visited = true
		}
		cost := int64(max(1, (p.queue[p.head].Bytes+r.width-1)/r.width))
		if p.deficit < cost {
			p.visited = false
			r.rr = (r.rr + 1) % n
			continue
		}
		p.deficit -= cost
		r.cur, _ = p.pop()
		r.eng.After(sim.Duration(cost)*r.period, "ref", r.deliver)
		return
	}
}

func (r *refWFQ) deliver() {
	it := r.cur
	r.cur = Item{}
	if r.plan.Roll(fault.Drop) {
		r.onDrop(it)
	} else {
		r.sink(it)
	}
	r.next()
}

// wfqUnderTest is what the differential script drives: the arbiter or
// the reference.
type wfqUnderTest interface {
	Push(i int, it Item) error
	Flush(i int) []Item
	SetWeight(i, weight int)
}

// wfqBuilder makes a scheduler with n weight-1 ports on eng, wired to
// the fault plan and the sink and drop observers.
type wfqBuilder func(eng *sim.Engine, n int, plan *fault.Plan, sink, drop func(Item)) wfqUnderTest

// wfqEvent is one observable outcome of a script: a delivery, a fault
// drop, a refused push or a flushed item, with its sim time.
type wfqEvent struct {
	kind     byte // 'd' delivered, 'x' dropped, 'f' flushed, 'r' refused
	port, id int
	at       sim.Time
}

type wfqTag struct{ port, id int }

// runWFQScript replays one seeded script against a scheduler built by
// mk. The script pushes 1 B–64 KiB items at random times over 16 or fewer
// ports of weight 1–16, flushes one port mid-backlog and re-admits it
// with a new weight, and arms a Drop fault plan on odd seeds.
func runWFQScript(seed uint64, mk wfqBuilder) []wfqEvent {
	rng := sim.NewRand(seed)
	eng := sim.NewEngine(seed)
	n := 2 + rng.Intn(15)
	var plan *fault.Plan
	if seed%2 == 1 {
		plan = fault.NewPlan(seed, "wfq").Set(fault.Drop, 0.1)
	}
	var log []wfqEvent
	obs := func(kind byte) func(Item) {
		return func(it Item) {
			tg := it.Payload.(wfqTag)
			log = append(log, wfqEvent{kind, tg.port, tg.id, eng.Now()})
		}
	}
	w := mk(eng, n, plan, obs('d'), obs('x'))
	for i := 0; i < n; i++ {
		w.SetWeight(i, 1+rng.Intn(16))
	}
	const pushes = 600
	const horizon = 100 * sim.Microsecond // ~1.4× the bus capacity: backlogs build
	for id := 0; id < pushes; id++ {
		port := rng.Intn(n)
		bytes := 1 + rng.Intn(1<<rng.Intn(17)) // log-uniform over 1 B..64 KiB
		at := sim.Time(rng.Intn(int(horizon)))
		it := Item{Payload: wfqTag{port, id}, Bytes: bytes}
		eng.At(at, "push", func() {
			if w.Push(it.Payload.(wfqTag).port, it) != nil {
				obs('r')(it)
			}
		})
	}
	victim := rng.Intn(n)
	reweight := 1 + rng.Intn(16)
	eng.At(sim.Time(horizon/2), "flush", func() {
		for _, it := range w.Flush(victim) {
			obs('f')(it)
		}
		w.SetWeight(victim, reweight)
	})
	eng.Run()
	return log
}

func TestWFQSkipAheadMatchesReference(t *testing.T) {
	const clock, width, depth = 250_000_000, 64, 32
	arb := func(eng *sim.Engine, n int, plan *fault.Plan, sink, drop func(Item)) wfqUnderTest {
		w := NewWFQArbiter(eng, "t", clock, width, depth, n, sink)
		w.SetFaultPlan(plan)
		w.SetOnDrop(drop)
		return w
	}
	ref := func(eng *sim.Engine, n int, plan *fault.Plan, sink, drop func(Item)) wfqUnderTest {
		r := newRefWFQ(eng, clock, width, depth, n, sink)
		r.plan, r.onDrop = plan, drop
		return r
	}
	var kinds [256]int
	for seed := uint64(1); seed <= 24; seed++ {
		got := runWFQScript(seed, arb)
		want := runWFQScript(seed, ref)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
			kinds[want[i].kind]++
		}
	}
	// The scripts must reach every outcome they are meant to compare.
	for _, k := range []byte{'d', 'x', 'f', 'r'} {
		if kinds[k] == 0 {
			t.Fatalf("no %q events across the scripts", k)
		}
	}
}

// BenchmarkWFQLargeItems measures the scheduler where quanta are far
// below item costs: a weight-1 port of 64 KiB items (1,024 beats each)
// against 15 backlogged ports of weight 1–4 moving 4 KiB items.
func BenchmarkWFQLargeItems(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		w := NewWFQArbiter(eng, "b", 250_000_000, 64, 64, 16, func(Item) {})
		for p := 1; p < 16; p++ {
			w.SetWeight(p, 1+p%4)
		}
		for j := 0; j < 16; j++ {
			_ = w.Push(0, Item{Bytes: 64 << 10})
			for p := 1; p < 16; p++ {
				_ = w.Push(p, Item{Bytes: 4 << 10})
			}
		}
		eng.Run()
		if w.Delivered != 16*16 {
			b.Fatalf("delivered %d of %d", w.Delivered, 16*16)
		}
	}
}
